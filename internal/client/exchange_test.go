package client_test

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/trace"
)

// peerReply builds the answer to the n'th batch (counted from 0 across
// every connection). v is the negotiated revision, sid the batch's
// stream, id and traceID its envelope, and good the well-formed reply,
// which the function may return, alter, or ignore.
type peerReply func(n int, v uint8, sid uint32, id, traceID uint64, good []byte) (trace.FrameType, []byte)

// faultReply is a peerReply for one scripted fault, whichever batch it
// answers.
type faultReply func(v uint8, sid uint32, id, traceID uint64, good []byte) (trace.FrameType, []byte)

// scriptPeer is a minimal BXTP server for driving the client's exchange
// core: it answers the Hello (negotiating down to version), every
// StreamOpen, and each Batch with reply's frame, by default a valid reply
// that "encodes" every transaction as itself. Its steady-state batch path
// allocates nothing, so allocation counts taken against it are the
// client's.
type scriptPeer struct {
	t       *testing.T
	ln      net.Listener
	version uint8
	reply   peerReply

	batches atomic.Int32
	opens   atomic.Int32
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   []net.Conn
}

func startPeer(t *testing.T, version uint8, reply peerReply) *scriptPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptPeer{t: t, ln: ln, version: version, reply: reply}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.close)
	return p
}

func (p *scriptPeer) addr() string { return p.ln.Addr().String() }

func (p *scriptPeer) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *scriptPeer) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.conns = append(p.conns, conn)
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serve(conn)
	}
}

// serve runs one connection until the client drops it.
func (p *scriptPeer) serve(conn net.Conn) {
	defer p.wg.Done()
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	ft, body, err := trace.ReadFrame(br, nil)
	if err != nil || ft != trace.FrameHello {
		return
	}
	h, err := trace.ParseHello(body)
	if err != nil {
		p.t.Errorf("peer: %v", err)
		return
	}
	v := min(h.Version, p.version)
	if trace.WriteFrame(bw, trace.FrameHelloOK, trace.MarshalHelloOK(trace.HelloOK{Version: v, BatchLimit: 64})) != nil || bw.Flush() != nil {
		return
	}
	var fbuf, good []byte
	var txns []trace.Transaction
	for {
		ft, body, err := trace.ReadFrame(br, fbuf)
		if err != nil {
			return
		}
		if cap(body)+1 > cap(fbuf) {
			fbuf = make([]byte, cap(body)+1)
		}
		var out []byte
		switch ft {
		case trace.FrameStreamOpen:
			o, err := trace.ParseStreamOpen(body)
			if err != nil {
				p.t.Errorf("peer: %v", err)
				return
			}
			p.opens.Add(1)
			ft, out = trace.FrameStreamOpenOK, trace.MarshalStreamOpenOK(trace.StreamOpenOK{ID: o.ID, Status: trace.StreamOK, BatchLimit: 64})
		case trace.FrameBatch:
			var sid uint32
			if v >= 4 {
				sid, body, _ = trace.SplitStreamID(body)
			}
			var id, traceID uint64
			switch {
			case v >= 3:
				id, traceID, body, err = trace.OpenTraceEnvelope(body)
			case v >= 2:
				id, body, err = trace.OpenBatchEnvelope(body)
			}
			if err == nil {
				txns, err = trace.ParseBatch(body, h.TxnSize, txns[:0])
			}
			if err != nil {
				p.t.Errorf("peer: batch: %v", err)
				return
			}
			good = appendReply(good[:0], v, sid, id, traceID, txns)
			ft, out = trace.FrameBatchReply, good
			if p.reply != nil {
				ft, out = p.reply(int(p.batches.Add(1)-1), v, sid, id, traceID, good)
			}
		default:
			continue
		}
		if trace.WriteFrame(bw, ft, out) != nil || bw.Flush() != nil {
			return
		}
	}
}

// appendReply appends a valid reply to txns in revision v's framing.
func appendReply(dst []byte, v uint8, sid uint32, id, traceID uint64, txns []trace.Transaction) []byte {
	envAt := 0
	if v >= 4 {
		dst = trace.AppendStreamID(dst, sid)
		envAt = len(dst)
	}
	switch {
	case v >= 3:
		dst = trace.AppendTraceEnvelope(dst, id, traceID)
	case v >= 2:
		dst = trace.AppendBatchEnvelope(dst, id)
	}
	dst = trace.AppendBatchStats(dst, trace.BatchStats{Transactions: uint32(len(txns))})
	for _, t := range txns {
		dst = append(dst, t.Data...)
	}
	if v >= 2 {
		trace.SealBatchEnvelope(dst[envAt:])
	}
	return dst
}

// prefixed leads body with sid's stream-id prefix on a v4 session.
func prefixed(v uint8, sid uint32, body []byte) []byte {
	if v < 4 {
		return body
	}
	return append(trace.AppendStreamID(nil, sid), body...)
}

// transcoder is the surface Client and Session share, so one test body
// can drive either.
type transcoder interface {
	Transcode([]trace.Transaction) (trace.BatchReply, error)
	Epoch() uint64
	RetryStats() client.RetryStats
	LastTraceID() uint64
}

// TestReplyClassification runs each kind of reply a server can send in
// place of a good one through both Client and Session, which share one
// classifier and retry loop. Each row's script answers batches 0, 2 and 3
// with its fault and every other batch with a valid reply. The first
// Transcode (retry budget 1) recovers on batch 1, and the recovery
// accounting is checked; the second exhausts its budget on batches 2 and
// 3, and the surfaced error is checked.
func TestReplyClassification(t *testing.T) {
	const hint = 30 * time.Millisecond
	type outcome int
	const (
		busy       outcome = iota // shed: retried on the same connection after the hint
		fault                     // BatchError: retried on the same connection
		faultReset                // BatchError that restarted the codec
		broken                    // connection dropped and redialed
		killed                    // StreamClosed: Client redials, Session re-opens its stream
	)
	mutate := func(f func(b []byte) []byte) faultReply {
		return func(_ uint8, _ uint32, _, _ uint64, good []byte) (trace.FrameType, []byte) {
			return trace.FrameBatchReply, f(bytes.Clone(good))
		}
	}
	rows := []struct {
		name       string
		version    uint8 // the peer's protocol cap
		clientOnly bool
		fault      faultReply
		outcome    outcome
		wantErr    error // nil: any error
	}{
		{name: "busy", version: 4, outcome: busy, wantErr: client.ErrBusy,
			fault: func(v uint8, sid uint32, id, _ uint64, _ []byte) (trace.FrameType, []byte) {
				return trace.FrameBusy, prefixed(v, sid, trace.MarshalBusy(id, hint))
			}},
		{name: "batch-error", version: 4, outcome: fault, wantErr: client.ErrBatchFault,
			fault: func(v uint8, sid uint32, id, _ uint64, _ []byte) (trace.FrameType, []byte) {
				return trace.FrameBatchError, prefixed(v, sid, trace.MarshalBatchError(id, false, "bad batch"))
			}},
		{name: "batch-error-reset", version: 4, outcome: faultReset, wantErr: client.ErrBatchFault,
			fault: func(v uint8, sid uint32, id, _ uint64, _ []byte) (trace.FrameType, []byte) {
				return trace.FrameBatchError, prefixed(v, sid, trace.MarshalBatchError(id, true, "codec reset"))
			}},
		{name: "wrong-batch-id", version: 4, outcome: broken, fault: mutate(func(b []byte) []byte {
			b[4]++ // the batch id's low byte, after the stream id
			trace.SealBatchEnvelope(b[4:])
			return b
		})},
		{name: "wrong-trace-id", version: 4, outcome: broken, fault: mutate(func(b []byte) []byte {
			b[4+12]++ // the trace id's low byte, after the batch envelope
			trace.SealBatchEnvelope(b[4:])
			return b
		})},
		{name: "crc-damage", version: 4, outcome: broken, wantErr: trace.ErrCRC, fault: mutate(func(b []byte) []byte {
			b[len(b)-1] ^= 0x10
			return b
		})},
		{name: "frame-error", version: 4, outcome: broken, wantErr: client.ErrServer,
			fault: func(v uint8, sid uint32, _, _ uint64, _ []byte) (trace.FrameType, []byte) {
				return trace.FrameError, prefixed(v, sid, []byte("session fatal"))
			}},
		// bxtd and bxtproxy send Error frames without a stream-id prefix;
		// the mux reader cannot route one, so only Client sees it.
		{name: "frame-error-plain", version: 4, clientOnly: true, outcome: broken, wantErr: client.ErrServer,
			fault: func(_ uint8, _ uint32, _, _ uint64, _ []byte) (trace.FrameType, []byte) {
				return trace.FrameError, []byte("session fatal")
			}},
		{name: "unknown-frame", version: 4, outcome: broken, wantErr: trace.ErrBadFrame,
			fault: func(v uint8, sid uint32, _, _ uint64, _ []byte) (trace.FrameType, []byte) {
				return trace.FrameType(0x7e), prefixed(v, sid, []byte{1, 2, 3})
			}},
		{name: "stream-closed", version: 4, outcome: killed,
			fault: func(_ uint8, sid uint32, _, _ uint64, _ []byte) (trace.FrameType, []byte) {
				return trace.FrameStreamClosed, trace.MarshalStreamClosed(sid, "fault budget exhausted")
			}},
		{name: "busy-on-v1", version: 1, clientOnly: true, outcome: broken, wantErr: trace.ErrBadFrame,
			fault: func(_ uint8, _ uint32, id, _ uint64, _ []byte) (trace.FrameType, []byte) {
				return trace.FrameBusy, trace.MarshalBusy(id, hint)
			}},
	}
	cfg := client.Config{MaxRetries: 1, RetryBackoff: time.Millisecond, RetryBackoffMax: 2 * time.Millisecond, IOTimeout: 5 * time.Second}
	for _, row := range rows {
		for _, kind := range []string{"client", "session"} {
			if kind == "session" && row.clientOnly {
				continue
			}
			t.Run(row.name+"/"+kind, func(t *testing.T) {
				peer := startPeer(t, row.version, func(n int, v uint8, sid uint32, id, traceID uint64, good []byte) (trace.FrameType, []byte) {
					if n == 0 || n == 2 || n == 3 {
						return row.fault(v, sid, id, traceID, good)
					}
					return trace.FrameBatchReply, good
				})
				var tx transcoder
				var mux *client.Mux
				if kind == "client" {
					c, err := client.DialConfig(peer.addr(), "universal", 32, cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					tx = c
				} else {
					m, err := client.NewMux(peer.addr(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer m.Close()
					s, err := m.Open("universal", 32)
					if err != nil {
						t.Fatal(err)
					}
					tx, mux = s, m
				}

				txns := muxTxns(rand.New(rand.NewSource(1)), 8, 32)
				start := time.Now()
				reply, err := tx.Transcode(txns)
				took := time.Since(start)
				if err != nil {
					t.Fatalf("Transcode with one retry = %v, want recovery", err)
				}
				for i, rec := range reply.Records {
					if !bytes.Equal(rec.Data, txns[i].Data) {
						t.Fatalf("record %d differs from its transaction after recovery", i)
					}
				}
				st, epoch := tx.RetryStats(), tx.Epoch()
				want := client.RetryStats{Retries: 1}
				wantEpoch, wantMuxReconnects, wantOpens := uint64(0), uint64(0), int32(0)
				switch row.outcome {
				case busy:
					want.Busy = 1
					if took < hint {
						t.Errorf("retry after a %v busy hint came after %v", hint, took)
					}
				case fault:
					want.BatchErrors = 1
				case faultReset:
					want.BatchErrors, wantEpoch = 1, 1
				case broken:
					wantEpoch = 1
					if mux == nil {
						want.Reconnects = 1
					} else {
						wantMuxReconnects = 1
					}
				case killed:
					wantEpoch = 1
					if mux == nil {
						want.Reconnects = 1
					} else {
						want.BatchErrors, wantOpens = 1, 1
					}
				}
				if st != want {
					t.Errorf("RetryStats = %+v, want %+v", st, want)
				}
				if epoch != wantEpoch {
					t.Errorf("Epoch = %d, want %d", epoch, wantEpoch)
				}
				if mux != nil && mux.Reconnects() != wantMuxReconnects {
					t.Errorf("mux Reconnects = %d, want %d", mux.Reconnects(), wantMuxReconnects)
				}
				if got := peer.opens.Load(); got != wantOpens {
					t.Errorf("peer saw %d stream opens, want %d", got, wantOpens)
				}

				_, err = tx.Transcode(txns)
				if err == nil {
					t.Fatal("Transcode after two faults succeeded, want the fault surfaced")
				}
				wantErr := row.wantErr
				if row.outcome == killed {
					wantErr = client.ErrServer
					if mux != nil {
						wantErr = client.ErrStreamKilled
					}
				}
				if wantErr != nil && !errors.Is(err, wantErr) {
					t.Errorf("surfaced error %v, want %v", err, wantErr)
				}
			})
		}
	}
}

// TestClientTranscodeZeroAlloc pins the steady-state claim of the package
// doc: once its buffers have grown, a streaming client allocates nothing
// per batch. The peer's batch path allocates nothing either, so the count
// is the client's (and the frame helpers').
func TestClientTranscodeZeroAlloc(t *testing.T) {
	peer := startPeer(t, trace.ProtocolVersion, nil)
	c, err := client.Dial(peer.addr(), "universal", 32)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	txns := muxTxns(rand.New(rand.NewSource(1)), 16, 32)
	var terr error
	transcode := func() {
		if _, err := c.Transcode(txns); err != nil && terr == nil {
			terr = err
		}
	}
	for i := 0; i < 10; i++ {
		transcode()
	}
	allocs := testing.AllocsPerRun(200, transcode)
	if terr != nil {
		t.Fatal(terr)
	}
	if allocs != 0 {
		t.Errorf("Client.Transcode = %.2f allocs/batch, want 0", allocs)
	}
}
