package server

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/power"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/trace"
)

// dupTxns builds a makeTxns stream with consecutive duplicates spliced in so
// the batch path's delta-base reuse fires.
func dupTxns(rng *rand.Rand, n, txnSize int) []trace.Transaction {
	txns := makeTxns(rng, n, txnSize)
	for i := 1; i < n; i++ {
		if rng.Intn(3) == 0 {
			copy(txns[i].Data, txns[i-1].Data)
		}
	}
	return txns
}

// seqReference rebuilds from scratch what the gateway must reply for one
// stream: a fresh codec encoding each transaction in arrival order, one
// Transfer per transaction on fresh baseline and encoded buses, the power
// model's estimate of each batch's deltas, and the v4 reply framing.
type seqReference struct {
	codec           core.Codec
	baseBus, encBus *bus.Bus
	model           *power.Model
	enc             core.Encoded
}

func newSeqReference(t *testing.T, st *stream) *seqReference {
	t.Helper()
	codec, err := scheme.Build(st.schemeName, st.ss.srv.cfg.SchemeOptions())
	if err != nil {
		t.Fatalf("Build(%s): %v", st.schemeName, err)
	}
	width := st.ss.srv.cfg.ChannelWidthBits
	return &seqReference{codec: codec, baseBus: bus.New(width), encBus: bus.New(width), model: power.NewModel()}
}

// reply returns the reference BatchReply body for batch id on stream sid.
func (r *seqReference) reply(t *testing.T, sid uint32, id uint64, txns []trace.Transaction) []byte {
	t.Helper()
	prevBase, prevEnc := r.baseBus.Stats(), r.encBus.Stats()
	var recs []byte
	for i := range txns {
		if err := r.codec.Encode(&r.enc, txns[i].Data); err != nil {
			t.Fatalf("reference Encode: %v", err)
		}
		raw := core.Encoded{Data: txns[i].Data}
		if err := r.baseBus.Transfer(&raw); err != nil {
			t.Fatalf("reference raw Transfer: %v", err)
		}
		if err := r.encBus.Transfer(&r.enc); err != nil {
			t.Fatalf("reference encoded Transfer: %v", err)
		}
		recs = append(recs, r.enc.Data...)
		recs = append(recs, r.enc.Meta...)
	}
	base, enc := r.baseBus.Stats().Sub(prevBase), r.encBus.Stats().Sub(prevEnc)
	body := trace.AppendStreamID(nil, sid)
	body = trace.AppendTraceEnvelope(body, id, 0)
	body = trace.AppendBatchStats(body, trace.BatchStats{
		Transactions:  uint32(len(txns)),
		DataBits:      uint64(base.DataBits),
		OnesBefore:    uint64(base.Ones()),
		OnesAfter:     uint64(enc.Ones()),
		TogglesBefore: uint64(base.Toggles()),
		TogglesAfter:  uint64(enc.Toggles()),
		BaselinePJ:    r.model.Estimate(base).Total() * 1e12,
		EncodedPJ:     r.model.Estimate(enc).Total() * 1e12,
	})
	body = append(body, recs...)
	if err := trace.SealBatchEnvelope(body[4:]); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBatchPathMatchesSequential is the serving-side differential for the
// batch encode path: gather, cache pre-pass, EncodeBatch, and block
// accounting must produce byte-identical replies and bit-identical bus
// statistics to an independent per-transaction reference, for metadata-free,
// metadata-bearing, and similarity-cached streams, across batch sizes
// straddling the blocking factor, duplicate-heavy streams, and Zipf
// hot-key traffic with exact and near repeats.
func TestBatchPathMatchesSequential(t *testing.T) {
	cached := testConfig()
	cached.SimCache.Enabled = true
	cases := []struct {
		name, scheme string
		cfg          config.Server
	}{
		{"universal", "universal", testConfig()},
		{"basexor", "basexor", testConfig()},
		{"2b", "2b", testConfig()},
		{"8b", "8b", testConfig()},
		{"silent", "silent", testConfig()},
		{"bdenc", "bdenc", testConfig()},
		{"dbi", "dbi", testConfig()},
		{"fve", "fve", testConfig()},
		{"universal+dbi1", "universal+dbi1", testConfig()},
		{"cached/universal", "universal", cached},
		{"cached/4b", "4b", cached},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := newStreamWith(t, tc.cfg, tc.scheme, 32)
			if st.batch == nil {
				t.Fatal("stream did not get a batch encoder")
			}
			if tc.cfg.SimCache.Enabled && st.cache == nil {
				t.Fatal("cache-enabled stream did not get a similarity cache")
			}
			ref := newSeqReference(t, st)
			rng := rand.New(rand.NewSource(23))
			var id uint64
			for round, n := range []int{1, 7, batchBlockTxns, batchBlockTxns + 1, 200} {
				for _, txns := range [][]trace.Transaction{
					dupTxns(rng, n, 32),
					makeHotTxns(int64(round), n, 32, 4),
				} {
					id++
					got, err := st.processBatch(id, txns)
					if err != nil {
						t.Fatalf("processBatch(%d txns): %v", n, err)
					}
					if want := ref.reply(t, st.sid, id, txns); !bytes.Equal(got, want) {
						t.Fatalf("batch %d (%d txns): reply diverges from the sequential reference", id, n)
					}
					if got, want := st.baseBus.Stats(), ref.baseBus.Stats(); got != want {
						t.Fatalf("batch %d (%d txns): raw-side bus stats diverge\ngot  %+v\nwant %+v", id, n, got, want)
					}
					if got, want := st.encBus.Stats(), ref.encBus.Stats(); got != want {
						t.Fatalf("batch %d (%d txns): encoded-side bus stats diverge\ngot  %+v\nwant %+v", id, n, got, want)
					}
					st.ss.replyFree <- got
				}
			}
			if st.cache != nil {
				cs := st.cache.Stats()
				if cs.Hits == 0 {
					t.Error("cached stream saw no exact hits")
				}
				if st.patcher != nil && cs.NearHits == 0 {
					t.Error("patching cached stream saw no near hits")
				}
			}
		})
	}
}

// TestGatherCountedMatchesTransferBatch checks the gather-fused raw-side
// accounting: the copied-out buffer must equal a plain gather, and the counts
// fed through TransferBatchCounted must leave a bus bit-identical to
// TransferBatch walking the payload itself — including across calls, where
// the boundary toggle consults bus history.
func TestGatherCountedMatchesTransferBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, width := range []int{32, 64} {
		for _, txnSize := range []int{8, 24, 32, 64} {
			a, b := bus.New(width), bus.New(width)
			for round := 0; round < 10; round++ {
				n := 1 + rng.Intn(5)
				txns := dupTxns(rng, n, txnSize)
				var plain []byte
				for i := range txns {
					plain = append(plain, txns[i].Data...)
				}
				dst := make([]byte, n*txnSize)
				ones, toggles := gatherCounted(dst, txns, txnSize, width/8)
				if !bytes.Equal(dst, plain) {
					t.Fatalf("width %d txnSize %d: gathered bytes diverge", width, txnSize)
				}
				if err := a.TransferBatch(plain, txnSize); err != nil {
					t.Fatal(err)
				}
				if err := b.TransferBatchCounted(dst, txnSize, ones, toggles); err != nil {
					t.Fatal(err)
				}
				if as, bs := a.Stats(), b.Stats(); as != bs {
					t.Fatalf("width %d txnSize %d round %d: stats diverge\ncounted  %+v\ninternal %+v",
						width, txnSize, round, bs, as)
				}
			}
		}
	}
}
