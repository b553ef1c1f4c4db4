package main

import (
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"github.com/hpca18/bxt/internal/bus"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/power"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/simcache"
	"github.com/hpca18/bxt/internal/trace"
)

// The replay regenerates every batch a lane sent and pushes it through each
// layer's public functions in this process: the codec, the bus model and
// the power model recompute what bxtd should have answered (the offline
// check of every run), and, on traced runs, timing those calls — plus the
// trace framing and simcache calls — gives the per-layer costs the live
// stack does not expose.

// replayCost sums the per-layer time one lane's replay spent.
type replayCost struct {
	batches, txns                   int
	encodeNS, accountNS, estimateNS int64
	decodeNS                        int64
	decoded                         int
	reuseHits, reuseTxns            uint64
	appendNS, parseNS, parseReplyNS int64
	framed                          int
	wireBytes                       int64
}

func (c *replayCost) add(o replayCost) {
	c.batches += o.batches
	c.txns += o.txns
	c.encodeNS += o.encodeNS
	c.accountNS += o.accountNS
	c.estimateNS += o.estimateNS
	c.decodeNS += o.decodeNS
	c.decoded += o.decoded
	c.reuseHits += o.reuseHits
	c.reuseTxns += o.reuseTxns
	c.appendNS += o.appendNS
	c.parseNS += o.parseNS
	c.parseReplyNS += o.parseReplyNS
	c.framed += o.framed
	c.wireBytes += o.wireBytes
}

// laneCheck is one lane's offline recomputation.
type laneCheck struct {
	stats      trace.BatchStats
	crc        uint32
	mismatches int
	cost       replayCost
}

// framedBatches bounds how many of lane 0's batches the trace-framing
// replay keeps bodies for.
const framedBatches = 512

// clockNS is the cost of one time.Now/time.Since pair, subtracted from
// every individually timed call.
var clockNS = calibrateClock()

func calibrateClock() int64 {
	d := make([]float64, 2001)
	for i := range d {
		t := time.Now()
		d[i] = float64(time.Since(t))
	}
	return int64(median(d))
}

func since(t time.Time) int64 {
	d := int64(time.Since(t)) - clockNS
	if d < 0 {
		return 0
	}
	return d
}

// replayLane recomputes lane l's replies offline: a fresh codec and fresh
// baseline/encoded buses, reset wherever the live session's epoch advanced,
// run the same encode and accounting paths bxtd runs. traced adds the
// decode pass and, for lane 0, the trace framing calls.
func replayLane(w workload, seed int64, l *lane, suite []appTrace, traced bool) (laneCheck, error) {
	var out laneCheck
	src := newSource(w, seed, l.id, suite)
	codec, err := scheme.New(w.scheme)
	if err != nil {
		return out, err
	}
	dec, _ := scheme.New(w.scheme)
	metaBits := codec.MetaBits(txnSize)
	metaBytes := (metaBits + 7) / 8
	recLen := txnSize + metaBytes
	var be core.BatchEncoder
	if metaBits == 0 {
		be = scheme.BatchEncoder(codec)
	}
	width := config.DefaultServer().ChannelWidthBits
	base, enc := bus.New(width), bus.New(width)
	var prevBase, prevEnc bus.Stats
	model := power.NewModel()

	failed := indexSet(l.failedAt)
	reset := indexSet(l.resetAt)
	recs := make([]byte, w.batch*recLen)
	srcBuf := make([]byte, w.batch*txnSize)
	dst := make([]core.Encoded, w.batch)
	var e core.Encoded
	plain := make([]byte, txnSize)
	framing := traced && l.id == 0
	var reqs, replies [][]byte
	var parsed []trace.Transaction
	c := &out.cost

	for i := 0; i < l.sent; i++ {
		batch := src.next()
		if failed[i] {
			continue
		}
		if reset[i] {
			codec.Reset()
			dec.Reset()
			base.Reset()
			enc.Reset()
			prevBase, prevEnc = bus.Stats{}, bus.Stats{}
		}
		n := len(batch)
		t0 := time.Now()
		if be != nil {
			for j, t := range batch {
				copy(srcBuf[j*txnSize:], t.Data)
				dst[j].Data = recs[j*recLen : (j+1)*recLen : (j+1)*recLen]
			}
			if err := be.EncodeBatch(dst[:n], srcBuf[:n*txnSize], n, txnSize); err != nil {
				return out, fmt.Errorf("replay encode: %w", err)
			}
			c.encodeNS += since(t0)
			for j := range dst[:n] {
				if &dst[j].Data[0] != &recs[j*recLen] {
					copy(recs[j*recLen:], dst[j].Data)
				}
			}
		} else {
			for j, t := range batch {
				if err := codec.Encode(&e, t.Data); err != nil {
					return out, fmt.Errorf("replay encode: %w", err)
				}
				copy(recs[j*recLen:], e.Data)
				copy(recs[j*recLen+txnSize:(j+1)*recLen], e.Meta)
			}
			c.encodeNS += since(t0)
		}

		t1 := time.Now()
		if be != nil {
			if err := base.TransferBatch(srcBuf[:n*txnSize], txnSize); err != nil {
				return out, err
			}
			if err := enc.TransferBatch(recs[:n*recLen], txnSize); err != nil {
				return out, err
			}
		} else {
			for j, t := range batch {
				raw := core.Encoded{Data: t.Data}
				if err := base.Transfer(&raw); err != nil {
					return out, err
				}
				r := recs[j*recLen : (j+1)*recLen]
				er := core.Encoded{Data: r[:txnSize], Meta: r[txnSize:], MetaBits: metaBits}
				if err := enc.Transfer(&er); err != nil {
					return out, err
				}
			}
		}
		c.accountNS += since(t1)

		t2 := time.Now()
		baseNow, encNow := base.Stats(), enc.Stats()
		bd, ed := baseNow.Sub(prevBase), encNow.Sub(prevEnc)
		prevBase, prevEnc = baseNow, encNow
		bs := trace.BatchStats{
			Transactions:  uint32(n),
			DataBits:      uint64(bd.DataBits),
			OnesBefore:    uint64(bd.Ones()),
			OnesAfter:     uint64(ed.Ones()),
			TogglesBefore: uint64(bd.Toggles()),
			TogglesAfter:  uint64(ed.Toggles()),
			BaselinePJ:    model.Estimate(bd).Total() * 1e12,
			EncodedPJ:     model.Estimate(ed).Total() * 1e12,
		}
		c.estimateNS += since(t2)
		out.stats.Add(bs)
		out.crc = crc32.Update(out.crc, castagnoli, recs[:n*recLen])
		c.batches++
		c.txns += n

		if traced {
			t3 := time.Now()
			for j, t := range batch {
				r := recs[j*recLen : (j+1)*recLen]
				er := core.Encoded{Data: r[:txnSize], Meta: r[txnSize:], MetaBits: metaBits}
				if err := dec.Decode(plain, &er); err != nil || string(plain) != string(t.Data) {
					out.mismatches++
				}
			}
			c.decodeNS += since(t3)
			c.decoded += n
		}
		if framing && len(reqs) < framedBatches {
			// Sized up front, as the client's reused buffer is, so the
			// timed call does not pay for growing it.
			req := make([]byte, 0, 64+n*(txnSize+16))
			req = trace.AppendTraceEnvelope(trace.AppendStreamID(req, 0), uint64(i+1), uint64(i+1))
			env := len(req)
			t4 := time.Now()
			req, err := trace.AppendBatch(req, batch, txnSize)
			c.appendNS += since(t4)
			if err != nil {
				return out, err
			}
			reqs = append(reqs, req[env:])
			rep := trace.AppendTraceEnvelope(trace.AppendStreamID(nil, 0), uint64(i+1), uint64(i+1))
			renv := len(rep)
			rep = append(trace.AppendBatchStats(rep, bs), recs[:n*recLen]...)
			replies = append(replies, rep[renv:])
			// Five bytes of frame header each way; the envelope already
			// holds its CRC-32C slot.
			c.wireBytes += int64(5+len(req)) + int64(5+len(rep))
			c.framed++
		}
	}
	if hr, ok := be.(core.BatchReuser); ok {
		c.reuseHits, c.reuseTxns = hr.BatchReuse()
	}
	if framing && len(reqs) > 0 {
		t := time.Now()
		for _, body := range reqs {
			var err error
			if parsed, err = trace.ParseBatch(body, txnSize, parsed[:0]); err != nil {
				return out, err
			}
		}
		c.parseNS = int64(time.Since(t))
		var rs []trace.EncodedRecord
		t = time.Now()
		for _, body := range replies {
			r, err := trace.ParseBatchReplyInto(body, txnSize, metaBytes, rs)
			if err != nil {
				return out, err
			}
			rs = r.Records
		}
		c.parseReplyNS = int64(time.Since(t))
	}
	return out, nil
}

func indexSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

// replayAll runs replayLane over every lane on at most two goroutines, the
// cores the container has.
func replayAll(w workload, seed int64, lanes []*lane, suite []appTrace, traced bool) ([]laneCheck, error) {
	out := make([]laneCheck, len(lanes))
	errs := make([]error, len(lanes))
	next := make(chan int, len(lanes)) // holds every lane index up front
	for i := range lanes {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = replayLane(w, seed, lanes[i], suite, traced)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cacheCost is the replayed simcache cost: lookup time by outcome, insert
// time, and the cache's state once the replay is done.
type cacheCost struct {
	hitNS, nearNS, missNS, insertNS int64
	hits, nears, misses, inserts    int
	batches                         int
	entries                         int
	evictions                       uint64
}

// cacheReplayTxns is how many of the run's transactions the simcache
// replay pushes through a fresh cache: twice the default capacity, so the
// cache fills and then evicts, as a serving cache does.
const cacheReplayTxns = 2 * simcache.DefaultCapacity

// replayCache feeds the lanes' regenerated streams, interleaved batch by
// batch as the live lanes interleave, through a fresh cache configured as
// bxtd configures its own, timing each Lookup by outcome and each Insert.
// Near hits patch the reference encoding and misses encode, as bxtd does;
// neither of those is timed here. It measures what the cache would cost
// and hit on the workload's traffic; no workload serves with it on. A
// scheme bxtd never caches (a stateful one) leaves every figure 0.
func replayCache(w workload, seed int64, lanes []*lane, suite []appTrace) (cacheCost, error) {
	var cc cacheCost
	if !scheme.Cacheable(w.scheme) {
		return cc, nil
	}
	cache, err := simcache.New(simcache.Config{TxnBytes: txnSize, ChannelWidthBits: config.DefaultServer().ChannelWidthBits})
	if err != nil {
		return cc, err
	}
	codec, err := scheme.New(w.scheme)
	if err != nil {
		return cc, err
	}
	patcher, _ := codec.(core.PatchEncoder)
	srcs := make([]*source, len(lanes))
	maxSent := 0
	for i := range srcs {
		srcs[i] = newSource(w, seed, i, suite)
		maxSent = max(maxSent, lanes[i].sent)
	}
	p := &simcache.Probe{}
	var e core.Encoded
	patch := make([]byte, txnSize)
	txns := 0
	for b := 0; b < maxSent && txns < cacheReplayTxns; b++ {
		for i, src := range srcs {
			if b >= lanes[i].sent {
				continue
			}
			cc.batches++
			for _, t := range src.next() {
				txns++
				t0 := time.Now()
				res := cache.Lookup(p, t.Data)
				d := since(t0)
				var rec []byte
				switch {
				case res == simcache.HitExact:
					cc.hitNS += d
					cc.hits++
					continue
				case res == simcache.HitNear && patcher != nil && patcher.PatchEncode(patch, t.Data, p.Ref, p.RefEnc):
					cc.nearNS += d
					cc.nears++
					rec = patch
				default:
					cc.missNS += d
					cc.misses++
					if err := codec.Encode(&e, t.Data); err != nil {
						return cc, err
					}
					rec = e.Data
				}
				t1 := time.Now()
				cache.Insert(p, t.Data, rec, nil)
				cc.insertNS += since(t1)
				cc.inserts++
			}
		}
	}
	st := cache.Stats()
	cc.entries, cc.evictions = st.Entries, st.Evictions
	return cc, nil
}
