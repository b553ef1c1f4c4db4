// Command perfbench is the repository's serving benchmark. It stands the
// real stack up in this process — bxtd (server.New/Start), plus bxtproxy
// (proxy.New/Start) for the proxied workload — and drives it over loopback
// TCP with closed-loop client.Client or client.Mux callers over one
// connection. Every reply is verified: each record is decoded and compared
// with its input, and after the run an offline recomputation through the
// codec, bus and power models must reproduce the replies' summed
// BatchStats and record bytes exactly.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload small-direct --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured untraced; with --trace 1 they are the per-layer
// ones, from a traced run (bxtd/bxtproxy stage histograms and counters
// scraped around it, the client stage hook on in every other slice of the
// window), followed by a replay of the run's own batches through each
// layer's public functions. Lines before it give the input properties,
// sample counts, the verification verdict and, when traced, the per-layer
// ledger and its check.
//
// The stack runs Go code on one core (GOMAXPROCS 1): client, proxy and
// server goroutines share it, so a batch's cost does not depend on how the
// scheduler happens to spread the lanes' goroutines over the cores. The
// replay afterwards uses every core.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/obs"
	"github.com/hpca18/bxt/internal/trace"
)

const (
	// A run stands the stack up setupRepeats times, or as many as fit in
	// setupBudget but at least minSetups; setup_s is the median, and only
	// the last stack is measured.
	setupRepeats = 15
	setupBudget  = 8 * time.Second
	minSetups    = 5
	// warmup is the unmeasured closed-loop time between set-up and the
	// first timed window.
	warmup = 300 * time.Millisecond
	// runLimit bounds one run; a hung stack ends the process rather than
	// the caller's patience.
	runLimit = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: small-direct, bdenc-direct or mux-proxied")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>:", err)
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runLimit)
		os.Exit(3)
	})
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// sample is the process state at one window edge.
type sample struct {
	at  time.Time
	cpu time.Duration
	mem runtime.MemStats
	srv metricsDoc
	px  metricsDoc
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (VmHWM)
// for this process.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS is the resident-set high-water mark since resetPeakRSS, in MB.
func peakRSS() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func (st *stack) sample(scrapeStack bool) (sample, error) {
	var s sample
	if scrapeStack {
		runtime.ReadMemStats(&s.mem)
		var err error
		if s.srv, err = scrape(st.srv.MetricsAddr()); err != nil {
			return s, err
		}
		if st.px != nil {
			if s.px, err = scrape(st.px.MetricsAddr()); err != nil {
				return s, err
			}
		}
	}
	var err error
	s.cpu, err = processCPU()
	s.at = time.Now()
	return s, err
}

// traceSlices is how many alternating slices a traced window is cut into.
const traceSlices = 20

// measure runs one timed window of length d and returns the samples at its
// edges. Untraced, every batch lands in window 0. Traced, the window
// alternates between slices with the client stage hook off (window 0) and
// on (window 1), so the host's drift over the window falls on both alike,
// and /metrics is scraped at both edges.
func (st *stack) measure(traced bool, d time.Duration) (sample, sample, error) {
	before, err := st.sample(traced)
	if err != nil {
		return before, before, err
	}
	slices := 1
	if traced {
		slices = traceSlices
	}
	start := time.Now()
	for i := 0; i < slices; i++ {
		on := i%2 == 1
		st.tracer.on.Store(on)
		if on {
			st.phase.Store(int32(phaseTraced))
		} else {
			st.phase.Store(int32(phaseUntraced))
		}
		time.Sleep(time.Until(start.Add(d * time.Duration(i+1) / time.Duration(slices))))
	}
	st.phase.Store(int32(phaseWarm))
	st.tracer.on.Store(false)
	end := time.Now()
	after, err := st.sample(traced)
	before.at, after.at = start, end
	return before, after, err
}

// merged is one or more windows summed over every lane.
type merged struct {
	attempted, failed, done int
	lat                     []float64 // microseconds, sorted
	stats                   trace.BatchStats
	decodeNS                int64
}

func mergeWindows(lanes []*lane, ks ...int) merged {
	var m merged
	for _, l := range lanes {
		for _, k := range ks {
			w := &l.win[k]
			m.attempted += w.attempted
			m.failed += w.failed
			for _, ns := range w.lat {
				m.lat = append(m.lat, float64(ns)/1e3)
			}
			m.stats.Add(w.stats)
			m.decodeNS += w.decodeNS
		}
	}
	sort.Float64s(m.lat)
	m.done = len(m.lat)
	return m
}

func (m merged) meanLatency() float64 {
	s := 0.0
	for _, v := range m.lat {
		s += v
	}
	return s / float64(len(m.lat))
}

func run(w workload, seed int64, d time.Duration, traced bool, info io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	suite := suiteTraces()
	props := measureProperties(w, seed, suite)
	fmt.Fprintf(info, "workload %s seed %d: %s, %d-txn batches, %d lanes over %d connections\n",
		w.name, seed, w.scheme, w.batch, w.lanes(), w.conns)
	fmt.Fprintf(info, "inputs (first %d txns per lane): exact repeat %.4f, near repeat (<%d bits) %.4f, consecutive duplicate %.4f, all-zero %.4f\n",
		propertyTxns, props.exact, nearBits, props.near, props.consecutive, props.zero)

	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	var setups []float64
	var spent time.Duration
	var st *stack
	for st == nil {
		last := len(setups)+1 == setupRepeats || (len(setups)+1 >= minSetups && spent >= setupBudget)
		// Every set-up starts alike: from a collected heap whose free
		// memory, the discarded stacks' and the input analysis's, has gone
		// back to the OS. Before the last, the high-water mark restarts, so
		// peak_rss_mb covers the measured stack and the inputs it draws
		// from.
		debug.FreeOSMemory()
		if last {
			if err := resetPeakRSS(); err != nil {
				return res, err
			}
		}
		s, dur, err := startStack(w, seed, suite)
		if err != nil {
			return res, fmt.Errorf("set-up %d: %w", len(setups)+1, err)
		}
		setups = append(setups, dur.Seconds())
		spent += dur
		if last {
			st = s
		} else {
			s.close()
		}
	}
	time.Sleep(warmup)

	before, after, err := st.measure(traced, d)
	if err != nil {
		st.close()
		return res, err
	}
	peakMB, err := peakRSS()
	if err != nil {
		st.close()
		return res, err
	}
	st.stop()
	var retry client.RetryStats
	for _, l := range st.lanes {
		rs := l.tx.RetryStats()
		retry.Retries += rs.Retries
		retry.Reconnects += rs.Reconnects
		retry.Busy += rs.Busy
		retry.BatchErrors += rs.BatchErrors
	}
	var muxReconnects uint64
	for _, m := range st.muxes {
		muxReconnects += m.Reconnects()
	}
	var final, finalPx metricsDoc
	if final, err = scrape(st.srv.MetricsAddr()); err == nil && st.px != nil {
		finalPx, err = scrape(st.px.MetricsAddr())
	}
	st.close()
	if err != nil {
		return res, err
	}

	// Verification: live decode mismatches, then the offline recomputation.
	runtime.GOMAXPROCS(procs)
	checks, err := replayAll(w, seed, st.lanes, suite, traced)
	if err != nil {
		return res, err
	}
	res.Correct = true
	var sent, failedTotal, mismatches int
	for i, l := range st.lanes {
		c := checks[i]
		sent += l.sent
		failedTotal += len(l.failedAt)
		mismatches += l.mismatches + c.mismatches
		if len(l.failedAt) > 0 {
			fmt.Fprintf(info, "lane %d: %d batches failed after retries, the first with: %v\n", l.id, len(l.failedAt), l.firstErr)
		}
		if l.mismatches > 0 || c.mismatches > 0 || c.stats != l.total || c.crc != l.crc {
			res.Correct = false
			fmt.Fprintf(info, "verify lane %d: %d live / %d offline decode mismatches; stats live %+v offline %+v; crc live %08x offline %08x\n",
				l.id, l.mismatches, c.mismatches, l.total, c.stats, l.crc, c.crc)
		}
	}
	verdict := "PASS"
	if !res.Correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(info, "verify %s: %d batches sent, %d failed after retries, %d decode mismatches, offline BatchStats and record CRC recomputation over every lane\n",
		verdict, sent, failedTotal, mismatches)

	el := after.at.Sub(before.at).Seconds()
	if !traced {
		um := mergeWindows(st.lanes, 0)
		if um.done == 0 {
			return res, fmt.Errorf("no batch completed in the %v window", d)
		}
		res.Attempted, res.Failed = um.attempted, um.failed
		baseline := um.stats.BaselinePJ
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("throughput_batches_s", "1/s", float64(um.done)/el)
		put("latency_p50_us", "us", quantile(um.lat, 0.5))
		p99, slices := sliceP99(st.lanes, 0)
		put("latency_p99_us", "us", p99)
		put("cpu_us_per_batch", "us", float64(after.cpu-before.cpu)/1e3/float64(um.done))
		put("energy_saved_pct", "%", 100*(baseline-um.stats.EncodedPJ)/baseline)
		put("success_pct", "%", 100*float64(um.attempted-um.failed)/float64(um.attempted))
		put("setup_s", "s", median(setups))
		put("peak_rss_mb", "MB", peakMB)
		fmt.Fprintf(info, "latency: %d samples in %.3fs, p99 the median of %d slices' p99; setup_s samples %v\n", len(um.lat), el, slices, setups)
		return res, nil
	}

	all := mergeWindows(st.lanes, 0, 1)
	off, on := mergeWindows(st.lanes, 0), mergeWindows(st.lanes, 1)
	if off.done == 0 || on.done == 0 {
		return res, fmt.Errorf("no batch completed in a traced window's slices")
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	var cost replayCost
	for _, c := range checks {
		cost.add(c.cost)
	}
	cc, err := replayCache(w, seed, st.lanes, suite)
	if err != nil {
		return res, err
	}
	lr := layers{
		w: w, all: all, hookOff: off, hookOn: on, t0: before, t1: after, el: el,
		cost: cost, cache: cc, clientHist: st.tracer.h,
		final: final, finalPx: finalPx, retry: retry, muxReconnects: muxReconnects,
	}
	metrics, ok := lr.metrics(info)
	for name, m := range metrics {
		res.Metrics[name] = m
	}
	res.Correct = res.Correct && ok
	return res, nil
}

const (
	// latency_p99_us is the median, over up to maxP99Slices consecutive
	// slices of the window, of each slice's 99th percentile, where every
	// slice holds at least minSliceSamples round trips (ten beyond its
	// 99th percentile). A burst of host scheduling noise that fills a
	// second or two of the window moves one slice's figure, not the median.
	maxP99Slices    = 15
	minSliceSamples = 1000
)

// sliceP99 returns latency_p99_us over window k and the number of slices
// it was taken over. Slice s pools the s-th of that many equal runs of
// every lane's round trips, which the closed-loop lanes complete side by
// side over the window.
func sliceP99(lanes []*lane, k int) (float64, int) {
	total := 0
	for _, l := range lanes {
		total += len(l.win[k].lat)
	}
	n := min(maxP99Slices, max(1, total/minSliceSamples))
	p99s := make([]float64, 0, n)
	for s := 0; s < n; s++ {
		var part []float64
		for _, l := range lanes {
			lat := l.win[k].lat
			for _, ns := range lat[s*len(lat)/n : (s+1)*len(lat)/n] {
				part = append(part, float64(ns)/1e3)
			}
		}
		sort.Float64s(part)
		p99s = append(p99s, quantile(part, 0.99))
	}
	return median(p99s), n
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// histMean is a histogram's mean in microseconds (0 when empty).
func histMean(h *obs.Histogram) float64 { return h.Mean() * 1e6 }
