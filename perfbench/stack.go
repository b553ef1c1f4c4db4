package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/config"
	"github.com/hpca18/bxt/internal/core"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/proxy"
	"github.com/hpca18/bxt/internal/scheme"
	"github.com/hpca18/bxt/internal/server"
	"github.com/hpca18/bxt/internal/trace"
)

// maxRetries is the client retry budget: enough to ride out a transient
// Busy or BatchError, as a production caller would configure, and left at
// the client's default backoff. Retries and sheds are counted, not hidden.
const maxRetries = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// phase is what the lanes are doing; batches are recorded into the window
// of the phase in which they complete.
type phase int32

const (
	phaseWarm phase = iota
	phaseUntraced
	phaseTraced
	phaseStop
)

// transcoder is the part of client.Client and client.Session a lane drives.
type transcoder interface {
	Transcode([]trace.Transaction) (trace.BatchReply, error)
	Epoch() uint64
	RetryStats() client.RetryStats
	MetaBits() int
}

// window is what one lane recorded during one timed phase.
type window struct {
	attempted, failed int
	lat               []uint32 // round-trip nanoseconds of completed batches
	stats             trace.BatchStats
	decodeNS          int64
}

// lane is one closed-loop caller. It verifies every reply as it arrives:
// each record is decoded with the lane's own codec (reset whenever the
// session's epoch advances) and compared with the transaction sent, and
// the replies' BatchStats and record bytes are folded into totals the
// offline recomputation checks after the run.
type lane struct {
	id        int
	src       *source
	tx        transcoder
	dec       core.Codec
	metaBits  int
	metaBytes int
	epoch     uint64
	plain     []byte

	sent       int              // batches attempted since the session opened
	failedAt   []int            // indices of batches that failed after retries
	resetAt    []int            // indices of batches answered after an epoch change
	total      trace.BatchStats // every verified reply
	crc        uint32           // CRC-32C over every reply's records, in order
	mismatches int
	firstErr   error
	win        [2]window
}

func newLane(id int, src *source, tx transcoder, schemeName string) (*lane, error) {
	dec, err := scheme.New(schemeName)
	if err != nil {
		return nil, err
	}
	mb := tx.MetaBits()
	return &lane{id: id, src: src, tx: tx, dec: dec, metaBits: mb, metaBytes: (mb + 7) / 8,
		epoch: tx.Epoch(), plain: make([]byte, txnSize)}, nil
}

// run drives the lane until the phase is phaseStop, reporting the outcome
// of its first batch to ready.
func (l *lane) run(ph *atomic.Int32, ready func(error)) {
	first := true
	for phase(ph.Load()) != phaseStop {
		batch := l.src.next()
		t0 := time.Now()
		reply, err := l.tx.Transcode(batch)
		rt := time.Since(t0)
		var w *window
		if p := phase(ph.Load()); p == phaseUntraced || p == phaseTraced {
			w = &l.win[p-phaseUntraced]
		}
		idx := l.sent
		l.sent++
		if err != nil {
			l.failedAt = append(l.failedAt, idx)
			if l.firstErr == nil {
				l.firstErr = err
			}
			if w != nil {
				w.attempted++
				w.failed++
			}
		} else {
			d0 := time.Now()
			l.verify(idx, batch, reply)
			dd := time.Since(d0)
			l.total.Add(reply.Stats)
			if w != nil {
				w.attempted++
				if rt > time.Duration(^uint32(0)) {
					rt = time.Duration(^uint32(0))
				}
				w.lat = append(w.lat, uint32(rt))
				w.stats.Add(reply.Stats)
				w.decodeNS += int64(dd)
			}
		}
		if first {
			first = false
			if err == nil && l.mismatches > 0 {
				err = fmt.Errorf("%d decode mismatches", l.mismatches)
			}
			ready(err)
		}
	}
}

func (l *lane) verify(idx int, batch []trace.Transaction, reply trace.BatchReply) {
	if e := l.tx.Epoch(); e != l.epoch {
		l.epoch = e
		l.dec.Reset()
		l.resetAt = append(l.resetAt, idx)
	}
	if len(reply.Records) != len(batch) {
		l.mismatches += len(batch)
		return
	}
	for i := range reply.Records {
		r := &reply.Records[i]
		enc := core.Encoded{Data: r.Data, Meta: r.Meta, MetaBits: l.metaBits}
		if err := l.dec.Decode(l.plain, &enc); err != nil || !bytes.Equal(l.plain, batch[i].Data) {
			l.mismatches++
		}
	}
	// ParseBatchReplyInto aliases every record into one contiguous reply
	// body, data then metadata, so the whole record run hashes in one call.
	l.crc = crc32.Update(l.crc, castagnoli, reply.Records[0].Data[:len(reply.Records)*(txnSize+l.metaBytes)])
}

// switchTracer forwards client stage timings only while tracing is on, so
// the untraced and traced windows run the same client configuration.
type switchTracer struct {
	on atomic.Bool
	h  *obs.HistogramTracer
}

func (t *switchTracer) ObserveStage(s string, st obs.Stage, d time.Duration) {
	if t.on.Load() {
		t.h.ObserveStage(s, st, d)
	}
}

// stack is one running serving stack — bxtd, bxtproxy for proxied
// workloads — and the lanes driving it, all in this process.
type stack struct {
	w       workload
	srv     *server.Server
	px      *proxy.Proxy
	clients []*client.Client
	muxes   []*client.Mux
	lanes   []*lane
	tracer  *switchTracer
	phase   atomic.Int32
	wg      sync.WaitGroup
}

// startStack brings a stack up and returns it with its set-up time: from
// server start to the first verified batch on every lane. The sources are
// built before the clock starts.
func startStack(w workload, seed int64, suite []appTrace) (*stack, time.Duration, error) {
	srcs := make([]*source, w.lanes())
	for i := range srcs {
		srcs[i] = newSource(w, seed, i, suite)
	}
	st := &stack{w: w, tracer: &switchTracer{h: obs.NewHistogramTracer(nil)}}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	start := time.Now()

	cfg := config.DefaultServer()
	cfg.ListenAddr, cfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	srv.SetLogger(logger)
	if err := srv.Start(); err != nil {
		return nil, 0, err
	}
	st.srv = srv
	addr := srv.Addr()
	if w.proxied {
		pcfg := config.DefaultProxy()
		pcfg.ListenAddr, pcfg.MetricsAddr = "127.0.0.1:0", "127.0.0.1:0"
		pcfg.Backends = []string{addr}
		px, err := proxy.New(pcfg)
		if err != nil {
			st.close()
			return nil, 0, err
		}
		px.SetLogger(logger)
		if err := px.Start(); err != nil {
			st.close()
			return nil, 0, err
		}
		st.px = px
		addr = px.Addr()
	}

	ccfg := client.Config{MaxRetries: maxRetries, Tracer: st.tracer}
	for c := 0; c < w.conns; c++ {
		if w.streams == 0 {
			cl, err := client.DialConfig(addr, w.scheme, txnSize, ccfg)
			if err != nil {
				st.close()
				return nil, 0, err
			}
			st.clients = append(st.clients, cl)
			if err := st.addLane(srcs, cl); err != nil {
				st.close()
				return nil, 0, err
			}
			continue
		}
		m, err := client.NewMux(addr, ccfg)
		if err != nil {
			st.close()
			return nil, 0, err
		}
		st.muxes = append(st.muxes, m)
		for s := 0; s < w.streams; s++ {
			sess, err := m.Open(w.scheme, txnSize)
			if err != nil {
				st.close()
				return nil, 0, err
			}
			if err := st.addLane(srcs, sess); err != nil {
				st.close()
				return nil, 0, err
			}
		}
	}

	var ready sync.WaitGroup
	firstErr := make([]error, len(st.lanes))
	ready.Add(len(st.lanes))
	for i, l := range st.lanes {
		st.wg.Add(1)
		go func(i int, l *lane) {
			defer st.wg.Done()
			l.run(&st.phase, func(err error) {
				firstErr[i] = err
				ready.Done()
			})
		}(i, l)
	}
	ready.Wait()
	for i, err := range firstErr {
		if err != nil {
			st.close()
			return nil, 0, fmt.Errorf("lane %d: first batch: %w", i, err)
		}
	}
	return st, time.Since(start), nil
}

func (st *stack) addLane(srcs []*source, tx transcoder) error {
	id := len(st.lanes)
	l, err := newLane(id, srcs[id], tx, st.w.scheme)
	if err != nil {
		return err
	}
	st.lanes = append(st.lanes, l)
	return nil
}

// stop ends the lanes and waits for every one to return.
func (st *stack) stop() {
	st.phase.Store(int32(phaseStop))
	st.wg.Wait()
}

// close stops the lanes and shuts the stack down.
func (st *stack) close() {
	st.stop()
	for _, c := range st.clients {
		c.Close()
	}
	for _, m := range st.muxes {
		m.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A drain timeout force-closes; nothing to report. Close then releases
	// the metrics listener, which Shutdown leaves serving.
	if st.px != nil {
		_ = st.px.Shutdown(ctx)
		_ = st.px.Close()
	}
	if st.srv != nil {
		_ = st.srv.Shutdown(ctx)
		_ = st.srv.Close()
	}
}

// metricsDoc is one parsed /metrics scrape.
type metricsDoc []obs.MetricPoint

func scrape(addr string) (metricsDoc, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	defer resp.Body.Close()
	pts, err := obs.ParsePromText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	return pts, nil
}

func (m metricsDoc) sum(name string, labels ...string) float64 {
	return obs.SumMetric(m, name, labels...)
}
