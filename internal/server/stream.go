package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/simcache"
	"github.com/hpca18/bxt/internal/trace"
)

// stream is one logical session on a connection: an independent (scheme,
// transaction size) context with its own codec, bus models, similarity
// cache handle, fault budget, and batch-id space. Sessions below protocol
// v4 own exactly one stream (id 0, opened implicitly by the Hello), so
// their wire behaviour is unchanged; v4 sessions demultiplex many streams
// onto one connection and open the extras with StreamOpen frames. All
// stream state is only ever touched by the session's read goroutine, so
// stateful codecs see batches in arrival order.
type stream struct {
	ss  *session
	sid uint32

	schemeName string
	codec      core.Codec
	txnSize    int
	metaBits   int
	metaBytes  int
	counters   *schemeCounters
	log        *slog.Logger
	// faults counts this stream's recoverable batch faults against the
	// configured budget. On a v4 session an exhausted budget kills only
	// this stream; sibling streams on the connection keep serving.
	faults int
	// stateful is the codec's snapshot interface, resolved at open
	// against the unwrapped codec (the chaos wrapper forwards only the
	// core.Codec surface). Nil when the scheme's state is not
	// transferable.
	stateful scheme.Stateful

	// cache, when non-nil, is the similarity tier for this stream's
	// (scheme, txnSize): repeated transactions are served from it without
	// re-running the codec. patcher re-encodes near-duplicates by patching
	// the cached reference record; it is nil when the codec cannot patch,
	// and lookups then skip the band scan entirely (LookupExact).
	cache   *simcache.Cache
	patcher core.PatchEncoder
	cacheH  *obs.Histogram
	// lookupTick strides the lookup timer: two clock reads per transaction
	// cost about as much as a hit itself, so one lookup in
	// lookupSampleStride is timed and scaled up for the stage histogram.
	lookupTick uint64

	// Stage histograms, resolved once at open so per-batch observation is
	// one mutex on the (scheme, stage) histogram.
	readH, admH, encH, accH, writeH *obs.Histogram
	batches                         uint64

	// traceID is the current batch's end-to-end trace id (zero on
	// sessions below protocol v3); span accumulates its per-stage
	// timings and wire counters. Both are touched only by the read
	// goroutine until the span is handed to writeLoop inside the
	// outFrame. lookupDur is the (sampled, scaled) similarity-cache
	// lookup time of the current batch, captured by encodeAll for the
	// span.
	traceID   uint64
	span      obs.Span
	lookupDur time.Duration
	// energy is the stream scheme's live wire-activity counter, resolved
	// once at open; every batch folds its baseline and encoded bus deltas
	// into it.
	energy *obs.EnergyCounter

	// baseBus and encBus carry the stream's wire state for baseline and
	// encoded transfers; their divergence is the value the gateway reports.
	baseBus, encBus   *bus.Bus
	prevBase, prevEnc bus.Stats
	txns              []trace.Transaction
	recBuf            []byte

	// batch is the codec's batch-granular entry point, and every stream
	// encodes through it: codecs without a native BatchEncoder (metadata
	// codecs, and chaos-wrapped ones, whose faults must keep firing per
	// transaction) run behind scheme.BatchEncoder's sequential adapter.
	// encodeAll gathers each block of transactions into srcBuf and encodes
	// the block's misses into their recBuf records with one EncodeBatch
	// call; batchEnc holds those record windows. On cached streams probes
	// carry each block transaction's lookup through to its Insert, and
	// missIdx/missBuf queue the misses; without a cache the whole block
	// misses and srcBuf is the codec's source.
	batch    core.BatchEncoder
	srcBuf   []byte
	batchEnc []core.Encoded
	probes   []simcache.Probe
	missIdx  []int
	missBuf  []byte
}

// openStream builds one stream on the session: codec construction, the
// zero-transaction probe, chaos wrapping, and metric/histogram resolution.
// It does not register the stream with the session; the caller does, once
// the open is answered.
func (ss *session) openStream(sid uint32, schemeName string, txnSize int) (*stream, error) {
	name := schemeName
	if name == "default" {
		name = ss.srv.cfg.DefaultScheme
	}
	codec, err := scheme.Build(name, ss.srv.cfg.SchemeOptions())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errSession, err)
	}

	// Probe the codec and bus geometry with one zero transaction on
	// throwaway state, so misconfigurations fail the open instead of the
	// first batch.
	var probe core.Encoded
	if err := codec.Encode(&probe, make([]byte, txnSize)); err != nil {
		return nil, fmt.Errorf("%w: scheme %q cannot encode %d-byte transactions: %v", errSession, name, txnSize, err)
	}
	if err := bus.New(ss.srv.cfg.ChannelWidthBits).Transfer(&probe); err != nil {
		return nil, fmt.Errorf("%w: scheme %q does not fit a %d-bit channel: %v", errSession, name, ss.srv.cfg.ChannelWidthBits, err)
	}
	codec.Reset()
	// Patch re-encoding resolves against the real codec: the chaos
	// wrapper below may perturb Encode, but a near-hit patch must
	// reproduce the clean encoding the cache stores.
	patcher, _ := codec.(core.PatchEncoder)
	// State transfer resolves against the real codec too: a wrapped codec
	// exposes only the core.Codec surface, so the Stateful interface must
	// be captured before chaos wrapping.
	stateful, _ := scheme.AsStateful(codec)
	// Chaos injection wraps the codec after the probe, so a configured
	// fault cannot fail an otherwise valid open.
	if ss.srv.inj != nil {
		codec = ss.srv.inj.WrapCodec(codec)
	}

	st := &stream{
		ss:         ss,
		sid:        sid,
		schemeName: name,
		codec:      codec,
		stateful:   stateful,
		txnSize:    txnSize,
		metaBits:   codec.MetaBits(txnSize),
		counters:   ss.srv.met.scheme(name),
		baseBus:    bus.New(ss.srv.cfg.ChannelWidthBits),
		encBus:     bus.New(ss.srv.cfg.ChannelWidthBits),
	}
	st.metaBytes = (st.metaBits + 7) / 8
	st.batch = scheme.BatchEncoder(codec)

	stages := ss.srv.met.stages
	st.readH = stages.Hist(name, obs.StageFrameRead)
	st.admH = stages.Hist(name, obs.StageAdmission)
	st.encH = stages.Hist(name, obs.StageEncode)
	st.accH = stages.Hist(name, obs.StageAccount)
	st.writeH = stages.Hist(name, obs.StageFrameWrite)
	st.energy = ss.srv.met.energy.Counter(name)
	if cache := ss.srv.simCacheFor(name, txnSize); cache != nil {
		st.cache = cache
		st.patcher = patcher
		st.cacheH = stages.Hist(name, obs.StageSimcacheLookup)
	}
	st.log = ss.srv.log.With("session", ss.id, "stream", sid, "scheme", name)
	return st, nil
}

// muxReply prepends the v4 stream-id prefix to a v3-encoded reply body on
// multiplexed sessions; below v4 the body passes through untouched.
func (st *stream) muxReply(v3 []byte) []byte {
	if st.ss.version < 4 {
		return v3
	}
	return append(trace.AppendStreamID(make([]byte, 0, 4+len(v3)), st.sid), v3...)
}

// handleBatch runs one Batch frame body (already stripped of any v4
// stream-id prefix) through envelope validation, parsing, admission, and
// encoding, queueing whatever reply the outcome calls for. It returns true
// when the session must close (v1 semantics, or a pre-v4 fault budget
// exhausted).
func (st *stream) handleBatch(body []byte, readDur time.Duration) (fatal bool) {
	ss := st.ss
	var id uint64
	st.traceID = 0
	payload := body
	if ss.version >= 3 {
		var err error
		id, st.traceID, payload, err = trace.OpenTraceEnvelope(body)
		if err != nil {
			st.readH.ObserveDuration(readDur)
			return st.softFail(id, false, err.Error())
		}
	} else if ss.version >= 2 {
		var err error
		id, payload, err = trace.OpenBatchEnvelope(body)
		if err != nil {
			// OpenBatchEnvelope keeps the id on CRC failures, so the
			// client can retry the exact batch that arrived corrupt.
			st.readH.ObserveDuration(readDur)
			return st.softFail(id, false, err.Error())
		}
	}
	st.readH.ObserveDurationEx(readDur, st.traceID)
	st.span.Reset(st.traceID, id, ss.id, st.schemeName)
	st.span.Observe(obs.StageFrameRead, readDur)
	txns, err := trace.ParseBatch(payload, st.txnSize, st.txns[:0])
	if err != nil {
		return st.softFail(id, false, err.Error())
	}
	st.txns = txns
	if len(txns) == 0 || len(txns) > ss.srv.cfg.BatchLimit {
		return st.softFail(id, false, fmt.Sprintf("batch of %d transactions outside [1, %d]", len(txns), ss.srv.cfg.BatchLimit))
	}
	// The worker pool bounds concurrent encodes across all sessions.
	// v2+ streams wait a bounded time and may be shed with a retryable
	// Busy reply; v1 sessions block until a slot frees (draining does
	// not abort the acquire, so batches already read always complete).
	admStart := time.Now()
	if !ss.srv.admit(ss.version >= 2) {
		ss.srv.met.busyShed.Add(1)
		ss.srv.events.Add(obs.Event{Type: obs.EventBusy, Session: ss.id, Scheme: st.schemeName, Txns: len(txns), TraceID: st.traceID})
		ss.out <- outFrame{t: trace.FrameBusy, body: st.muxReply(trace.MarshalBusy(id, ss.srv.cfg.AdmitTimeout))}
		return false
	}
	// Shed batches never reach here, so the admission stage counts
	// admitted batches and its histogram reflects successful waits.
	admDur := time.Since(admStart)
	st.admH.ObserveDurationEx(admDur, st.traceID)
	st.span.Observe(obs.StageAdmission, admDur)
	reply, err := st.processBatch(id, txns)
	ss.srv.release()
	if err != nil {
		if errors.Is(err, errCodecPanic) {
			st.quarantine(id, len(txns), payload, err)
		}
		// Encoding began, so the codec was reset (recoverBatch); a v2
		// client learns via the reset flag to restart its decoder.
		return st.softFail(id, true, err.Error())
	}
	f := outFrame{t: trace.FrameBatchReply, body: reply, span: st.span, st: st, hasSpan: true}
	// Steady-state fast path: with nothing queued, the reply goes out from
	// this goroutine, skipping the channel handoff and writer wakeup. Only
	// this goroutine enqueues, so an empty queue cannot gain frames the
	// reply would overtake; a frame mid-write in the writer is ordered by
	// writeOut's mutex.
	if len(ss.out) == 0 {
		ss.writeOut(f, true)
	} else {
		ss.out <- f
	}
	return false
}

// softFail records one recoverable batch fault. A v1 session cannot be
// told to retry, so the fault stays fatal: error frame, then close. A v2
// or v3 session is answered with a BatchError reply and lives on — until
// its fault budget runs out, at which point the gateway disconnects the
// peer as abusive. On a v4 session the budget is per stream: exhaustion
// kills only this stream (StreamClosed), and sibling streams on the
// connection keep serving.
func (st *stream) softFail(id uint64, reset bool, cause string) (fatal bool) {
	ss := st.ss
	if ss.version < 2 {
		ss.fail(cause)
		return true
	}
	st.faults++
	ss.srv.met.batchFaults.Add(1)
	st.log.Warn("batch fault", "batch_id", id, "codec_reset", reset, "err", cause)
	ss.srv.events.Add(obs.Event{Type: obs.EventBatchFault, Session: ss.id, Scheme: st.schemeName, Detail: cause, TraceID: st.traceID})
	ss.out <- outFrame{t: trace.FrameBatchError, body: st.muxReply(trace.MarshalBatchError(id, reset, cause))}
	if st.faults >= ss.srv.cfg.FaultBudget {
		msg := fmt.Sprintf("fault budget exhausted after %d recoverable faults", st.faults)
		ss.srv.met.budgetKills.Add(1)
		ss.srv.events.Add(obs.Event{Type: obs.EventFaultBudget, Session: ss.id, Scheme: st.schemeName, Detail: msg})
		if ss.version >= 4 {
			ss.srv.met.streamKills.Add(1)
			st.log.Warn("closing stream", "reason", msg)
			ss.closeStream(st.sid, msg)
			return false
		}
		st.log.Warn("disconnecting", "reason", msg)
		ss.fail(msg)
		return true
	}
	return false
}

// quarantine records a batch whose codec encode panicked: the poison ring
// keeps a bounded prefix of the raw payload for offline reproduction.
func (st *stream) quarantine(id uint64, txns int, payload []byte, err error) {
	ss := st.ss
	ss.srv.met.codecPanics.Add(1)
	ss.srv.met.poisonBatches.Add(1)
	ss.srv.poison.add(ss.id, st.schemeName, id, txns, payload, err.Error())
	st.log.Warn("codec panic recovered; batch quarantined", "batch_id", id, "txns", txns, "err", err)
	ss.srv.events.Add(obs.Event{Type: obs.EventCodecPanic, Session: ss.id, Scheme: st.schemeName, Txns: txns, Detail: err.Error()})
}

// processBatch encodes one batch with the stream codec, drives the
// baseline and encoded transfers over the stream's bus models, and builds
// the BatchReply frame body. The two passes are timed separately: pass one
// (encodeAll: lookups, encode, and bus transfers) is the codec_encode
// stage, pass two (the bus statistics delta and power estimate) the
// phy_account stage. Any error return leaves the stream serviceable:
// recoverBatch has reset the codec and discarded the partial batch's bus
// deltas (the caller relays the reset to v2 clients).
func (st *stream) processBatch(id uint64, txns []trace.Transaction) ([]byte, error) {
	ss := st.ss
	if hook := ss.srv.testHookBatch; hook != nil {
		hook()
	}
	encStart := time.Now()
	if err := st.encodeAll(txns); err != nil {
		st.recoverBatch()
		return nil, err
	}
	accStart := time.Now()
	encDur := accStart.Sub(encStart)
	st.encH.ObserveDurationEx(encDur, st.traceID)
	if st.cache != nil {
		// The lookup time is buried inside the encode pass; surface it as
		// its own span stage the way the sampled cacheH histogram does.
		st.span.Observe(obs.StageSimcacheLookup, st.lookupDur)
	}
	st.span.Observe(obs.StageEncode, encDur)

	baseNow, encNow := st.baseBus.Stats(), st.encBus.Stats()
	baseDelta := baseNow.Sub(st.prevBase)
	encDelta := encNow.Sub(st.prevEnc)
	st.prevBase, st.prevEnc = baseNow, encNow

	stats := trace.BatchStats{
		Transactions:  uint32(len(txns)),
		DataBits:      uint64(baseDelta.DataBits),
		OnesBefore:    uint64(baseDelta.Ones()),
		OnesAfter:     uint64(encDelta.Ones()),
		TogglesBefore: uint64(baseDelta.Toggles()),
		TogglesAfter:  uint64(encDelta.Toggles()),
		BaselinePJ:    ss.srv.model.Estimate(baseDelta).Total() * 1e12,
		EncodedPJ:     ss.srv.model.Estimate(encDelta).Total() * 1e12,
	}
	st.counters.observe(stats)
	st.energy.Observe(baseDelta, encDelta)
	done := time.Now()
	accDur := done.Sub(accStart)
	st.accH.ObserveDurationEx(accDur, st.traceID)
	st.span.Observe(obs.StageAccount, accDur)
	st.span.Txns = len(txns)
	st.span.DataBits = stats.DataBits
	st.span.BaseOnes, st.span.EncOnes = stats.OnesBefore, stats.OnesAfter
	st.span.BaseToggles, st.span.EncToggles = stats.TogglesBefore, stats.TogglesAfter
	st.batches++

	if total := done.Sub(encStart); total >= ss.srv.cfg.SlowBatch {
		st.log.Warn("slow batch", "txns", len(txns), "took", total.Round(time.Microsecond).String())
		ss.srv.events.Add(obs.Event{
			Type:       obs.EventSlowBatch,
			Session:    ss.id,
			Scheme:     st.schemeName,
			Txns:       len(txns),
			DurationMS: float64(total) / float64(time.Millisecond),
			TraceID:    st.traceID,
		})
	} else if st.log.Enabled(context.Background(), slog.LevelDebug) {
		// Gated so the duration formatting does not allocate on every
		// batch at the default info level.
		st.log.Debug("batch", "txns", len(txns), "took", total.Round(time.Microsecond).String())
	}

	// Reuse a recycled reply body if the writer has returned one; the
	// first few batches (and any burst deeper than the free list)
	// allocate, then the stream reaches a steady state of zero
	// allocations per batch.
	var body []byte
	select {
	case body = <-ss.replyFree:
		body = body[:0]
	default:
	}
	// On a v4 session the reply leads with the stream id; the envelope and
	// its CRC cover only the v3-encoded remainder, so the interior stays
	// byte-identical to what a v3 peer would see.
	envAt := 0
	if ss.version >= 4 {
		body = trace.AppendStreamID(body, st.sid)
		envAt = 4
	}
	if ss.version >= 3 {
		// Echo the trace id so the client can verify the reply belongs
		// to the trace it started.
		body = trace.AppendTraceEnvelope(body, id, st.traceID)
	} else if ss.version >= 2 {
		body = trace.AppendBatchEnvelope(body, id)
	}
	body = trace.AppendBatchStats(body, stats)
	body = append(body, st.recBuf...)
	if ss.version >= 2 {
		if err := trace.SealBatchEnvelope(body[envAt:]); err != nil {
			return nil, err // unreachable: the envelope was just appended
		}
	}
	return body, nil
}

// batchBlockTxns is the cache-blocking factor of the encode path: the
// gathered source block and its record windows (64 × 32 B = 2 KiB each for
// the paper's workload) both stay L1-resident from the encode walk through
// the accounting walk, while still amortizing per-call overheads.
const batchBlockTxns = 64

// encodeAll is the stream's one encode path, run block by block. BXTP
// frames stride each transaction's data behind its record header, so each
// block is first gathered into the contiguous srcBuf the mega-kernel wants.
// A cached stream then serves exact and patched near hits straight into
// their records and leaves only the misses for the codec; without a cache
// the whole block misses. One EncodeBatch call writes the misses in place
// into their recBuf records, data and side-band alike, so the reply
// payload needs no per-record copies. Each record is settled and cached,
// and the block is charged to both buses in arrival order while still
// L1-resident. A codec panic becomes errCodecPanic, so one poisonous batch
// cannot take down the process (or even the stream).
func (st *stream) encodeAll(txns []trace.Transaction) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errCodecPanic, r)
		}
	}()
	n, recLen := len(txns), st.txnSize+st.metaBytes
	if need := n * recLen; cap(st.recBuf) < need {
		st.recBuf = make([]byte, need)
	} else {
		st.recBuf = st.recBuf[:need]
	}
	if st.batchEnc == nil {
		st.batchEnc = make([]core.Encoded, batchBlockTxns)
		st.srcBuf = make([]byte, batchBlockTxns*st.txnSize)
		if st.cache != nil {
			st.probes = make([]simcache.Probe, batchBlockTxns)
		}
	}
	// gatherCounted folds the raw-side ones and toggles into the gather
	// when the geometry allows it, sparing the raw bus its own walk.
	bb := st.baseBus.BeatBytes()
	counted := st.txnSize%8 == 0 && (bb == 4 || bb == 8)
	var lookups time.Duration
	for start := 0; start < n; start += batchBlockTxns {
		block := txns[start:min(start+batchBlockTxns, n)]
		src := st.srcBuf[:len(block)*st.txnSize]
		recs := st.recBuf[start*recLen : (start+len(block))*recLen]
		var rawOnes, rawToggles int
		if counted {
			rawOnes, rawToggles = gatherCounted(src, block, st.txnSize, bb)
		} else {
			for i := range block {
				copy(src[i*st.txnSize:], block[i].Data)
			}
		}
		st.missIdx = st.missIdx[:0]
		missSrc := src
		if st.cache != nil {
			lookups += st.lookupBlock(block, recs)
			missSrc = st.missBuf
		} else {
			for i := range block {
				st.missIdx = append(st.missIdx, i)
			}
		}
		if len(st.missIdx) > 0 {
			dst := st.batchEnc[:len(st.missIdx)]
			for k, i := range st.missIdx {
				rec := recs[i*recLen : (i+1)*recLen : (i+1)*recLen]
				dst[k] = core.Encoded{Data: rec[:st.txnSize:st.txnSize], Meta: rec[st.txnSize:]}
			}
			if err := st.batch.EncodeBatch(dst, missSrc, len(dst), st.txnSize); err != nil {
				return fmt.Errorf("scheme %s: encoding batch: %v", st.schemeName, err)
			}
			for k, i := range st.missIdx {
				rec := recs[i*recLen : (i+1)*recLen]
				if err := st.settle(&dst[k], rec, start+i); err != nil {
					return err
				}
				if st.cache != nil {
					st.cache.Insert(&st.probes[i], block[i].Data, rec[:st.txnSize], rec[st.txnSize:])
				}
			}
		}
		if err := st.account(src, recs, counted, rawOnes, rawToggles); err != nil {
			return err
		}
	}
	if st.cache != nil {
		st.lookupDur = lookups
		st.cacheH.ObserveEx(lookups.Seconds(), st.traceID)
	}
	return nil
}

// lookupBlock is the similarity-cache pre-pass over one block: exact hits
// copy the cached record and near hits patch the cached reference (only
// the few changed elements run through the codec datapath), both straight
// into their records in recs. Misses — and pairs the codec refuses to
// patch — are queued in missIdx and missBuf for the block's EncodeBatch
// call. It returns the block's (sampled, see lookupSampleStride) lookup
// time.
func (st *stream) lookupBlock(block []trace.Transaction, recs []byte) (lookups time.Duration) {
	recLen := st.txnSize + st.metaBytes
	st.missBuf = st.missBuf[:0]
	for i := range block {
		data, p := block[i].Data, &st.probes[i]
		var lookupStart time.Time
		sampled := st.lookupTick%lookupSampleStride == 0
		st.lookupTick++
		if sampled {
			lookupStart = time.Now()
		}
		var res simcache.Result
		if st.patcher != nil {
			res = st.cache.Lookup(p, data)
		} else {
			res = st.cache.LookupExact(p, data)
		}
		if sampled {
			lookups += time.Since(lookupStart) * lookupSampleStride
		}
		rec := recs[i*recLen : (i+1)*recLen]
		switch {
		case res == simcache.HitExact:
			copy(rec, p.Data)
			copy(rec[st.txnSize:], p.Meta)
		case res == simcache.HitNear && st.patcher.PatchEncode(rec[:st.txnSize], data, p.Ref, p.RefEnc):
			st.cache.Insert(p, data, rec[:st.txnSize], nil)
		default:
			st.missIdx = append(st.missIdx, i)
			st.missBuf = append(st.missBuf, data...)
		}
	}
	return lookups
}

// settle verifies the codec encoded batch record idx with the stream's
// geometry, copying it back into its recBuf window rec when a misbehaving
// (or fault-injected) codec regrew it elsewhere.
func (st *stream) settle(d *core.Encoded, rec []byte, idx int) error {
	if len(d.Data) != st.txnSize || d.MetaBits != st.metaBits || len(d.Meta) != st.metaBytes {
		return fmt.Errorf("scheme %s: batch record %d has %d data bytes and %d meta bits, want %d and %d",
			st.schemeName, idx, len(d.Data), d.MetaBits, st.txnSize, st.metaBits)
	}
	if &d.Data[0] != &rec[0] {
		copy(rec, d.Data)
	}
	if st.metaBytes > 0 && &d.Meta[0] != &rec[st.txnSize] {
		copy(rec[st.txnSize:], d.Meta)
	}
	return nil
}

// account charges one block to both buses in arrival order (toggles depend
// on the beat sequence). The raw side is one TransferBatch walk over the
// gathered source, or none when gatherCounted already counted it. The
// encoded side is one fused TransferBatch walk over the block's records on
// metadata-free streams; side-band wires need the per-record Transfer.
func (st *stream) account(src, recs []byte, counted bool, rawOnes, rawToggles int) error {
	var err error
	if counted {
		err = st.baseBus.TransferBatchCounted(src, st.txnSize, rawOnes, rawToggles)
	} else {
		err = st.baseBus.TransferBatch(src, st.txnSize)
	}
	if err != nil {
		return err
	}
	if st.metaBits == 0 {
		return st.encBus.TransferBatch(recs, st.txnSize)
	}
	recLen := st.txnSize + st.metaBytes
	for off := 0; off < len(recs); off += recLen {
		enc := core.Encoded{Data: recs[off : off+st.txnSize], Meta: recs[off+st.txnSize : off+recLen], MetaBits: st.metaBits}
		if err := st.encBus.Transfer(&enc); err != nil {
			return err
		}
	}
	return nil
}

// recoverBatch returns the stream to a clean state after a failed batch:
// the codec restarts from scratch (stateful codecs may have advanced
// mid-batch; the client is told via the BatchError reset flag) and the
// bus accounting baselines resync so the partial batch's transfers never
// reach a BatchStats delta.
func (st *stream) recoverBatch() {
	st.codec.Reset()
	st.prevBase, st.prevEnc = st.baseBus.Stats(), st.encBus.Stats()
}
