package main

import (
	"fmt"
	"io"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/obs"
)

// layers gathers what a traced run measured and turns it into the
// per-layer metrics and the ledger.
type layers struct {
	w               workload
	all             merged // the whole traced window
	hookOff, hookOn merged // its slices with the client stage hook off and on
	t0, t1          sample // traced window edges, with /metrics scrapes
	el              float64
	cost            replayCost
	cache           cacheCost
	clientHist      *obs.HistogramTracer
	final, finalPx  metricsDoc        // scraped after the lanes stopped
	retry           client.RetryStats // summed over the lanes, whole run
	muxReconnects   uint64
}

// ledgerSlack is how far below zero a ledger row, the unattributed
// remainder included, may read, as a share of the mean round trip, before
// the ledger counts as over-attributed: room for histogram rounding, not
// for a double-counted stage.
const ledgerSlack = 0.01

// stageMean is one stage histogram's mean over the traced window, in
// microseconds: the delta of its _sum over the delta of its _count.
func stageMean(before, after metricsDoc, family, scheme string, stage obs.Stage) float64 {
	l := []string{"scheme", scheme, "stage", string(stage)}
	dc := after.sum(family+"_count", l...) - before.sum(family+"_count", l...)
	if dc <= 0 {
		return 0
	}
	return (after.sum(family+"_sum", l...) - before.sum(family+"_sum", l...)) / dc * 1e6
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ledgerRow is one attributed slice of the traced mean round trip.
type ledgerRow struct {
	name   string
	us     float64
	source string
}

// metrics returns the per-layer metrics and whether the ledger passed its
// check: no row, and not the unattributed remainder, below zero.
func (lr layers) metrics(info io.Writer) (map[string]metric, bool) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	s := lr.w.scheme
	c := lr.cost
	batches := float64(lr.all.done)
	el := lr.el
	srv := func(st obs.Stage) float64 { return stageMean(lr.t0.srv, lr.t1.srv, "bxtd_stage_seconds", s, st) }
	px := func(st obs.Stage) float64 { return stageMean(lr.t0.px, lr.t1.px, "bxtproxy_stage_seconds", s, st) }

	put("client.frame_write_us", "us", histMean(lr.clientHist.Hist(s, obs.StageFrameWrite)))
	put("client.frame_read_us", "us", histMean(lr.clientHist.Hist(s, obs.StageFrameRead)))
	put("client.decode_us", "us", ratio(float64(lr.all.decodeNS)/1e3, batches))
	put("trace.append_batch_ns", "ns", ratio(float64(c.appendNS), float64(c.framed)))
	put("trace.parse_batch_ns", "ns", ratio(float64(c.parseNS), float64(c.framed)))
	put("trace.parse_reply_ns", "ns", ratio(float64(c.parseReplyNS), float64(c.framed)))
	put("trace.wire_bytes_per_batch", "bytes", ratio(float64(c.wireBytes), float64(c.framed)))

	sRead, sAdm, sEnc := srv(obs.StageFrameRead), srv(obs.StageAdmission), srv(obs.StageEncode)
	sAcc, sWrite := srv(obs.StageAccount), srv(obs.StageFrameWrite)
	put("server.frame_read_us", "us", sRead)
	put("server.admission_us", "us", sAdm)
	put("server.codec_encode_us", "us", sEnc)
	put("server.phy_account_us", "us", sAcc)
	put("server.frame_write_us", "us", sWrite)
	put("server.busy", "count", lr.final.sum("bxtd_busy_total"))

	put("codec.encode_ns_per_txn", "ns", ratio(float64(c.encodeNS), float64(c.txns)))
	put("codec.decode_ns_per_txn", "ns", ratio(float64(c.decodeNS), float64(c.decoded)))
	put("codec.batch_reuse_share", "ratio", ratio(float64(c.reuseHits), float64(c.reuseTxns)))
	put("bus.account_ns_per_txn", "ns", ratio(float64(c.accountNS), float64(c.txns)))
	put("power.estimate_ns_per_batch", "ns", ratio(float64(c.estimateNS), float64(c.batches)))

	pRead, pBack, pWrite := px(obs.StageFrameRead), px(obs.StageBackend), px(obs.StageFrameWrite)
	// The relay's own share of a round trip: the reply write to the client
	// plus the backend exchange minus what bxtd's stages account for inside
	// it (upstream framing, both loopback hops, bxtd's unstaged parse and
	// reply build). Its client-side frame_read is left out: it includes the
	// idle wait for the next frame.
	relaySelf := 0.0
	if lr.w.proxied {
		relaySelf = pBack + pWrite - (sAdm + sEnc + sAcc + sWrite)
	}
	put("proxy.frame_read_us", "us", pRead)
	put("proxy.backend_exchange_us", "us", pBack)
	put("proxy.frame_write_us", "us", pWrite)
	put("proxy.relay_self_us", "us", relaySelf)
	put("proxy.busy_converted", "count", lr.finalPx.sum("bxtproxy_busy_converted_total"))

	put("client.retries", "count", float64(lr.retry.Retries))
	put("client.busy", "count", float64(lr.retry.Busy))
	put("client.batch_errors", "count", float64(lr.retry.BatchErrors))
	put("client.reconnects", "count", float64(lr.retry.Reconnects))
	put("mux.reconnects", "count", float64(lr.muxReconnects))

	// simcache.* come from replaying the workload's own batches through a
	// fresh cache; no workload serves with it on.
	cc := lr.cache
	lookups := float64(cc.hits + cc.nears + cc.misses)
	put("simcache.lookup_us", "us", ratio(float64(cc.hitNS+cc.nearNS+cc.missNS)/1e3, float64(cc.batches)))
	put("simcache.hit_share", "ratio", ratio(float64(cc.hits), lookups))
	put("simcache.near_share", "ratio", ratio(float64(cc.nears), lookups))
	put("simcache.miss_share", "ratio", ratio(float64(cc.misses), lookups))
	put("simcache.entries", "count", float64(cc.entries))
	put("simcache.evictions", "count", float64(cc.evictions))
	put("simcache.lookup_hit_ns", "ns", ratio(float64(cc.hitNS), float64(cc.hits)))
	put("simcache.lookup_near_ns", "ns", ratio(float64(cc.nearNS), float64(cc.nears)))
	put("simcache.lookup_miss_ns", "ns", ratio(float64(cc.missNS), float64(cc.misses)))
	put("simcache.insert_ns", "ns", ratio(float64(cc.insertNS), float64(cc.inserts)))

	m0, m1 := &lr.t0.mem, &lr.t1.mem
	put("runtime.allocs_per_batch", "count", ratio(float64(m1.Mallocs-m0.Mallocs), batches))
	put("runtime.alloc_bytes_per_batch", "bytes", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), batches))
	put("runtime.gc_pause_us_per_s", "us/s", ratio(float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e3, el))

	// The ledger splits the traced mean round trip into the stages on its
	// blocking path, without overlap. Stages that nest inside another
	// (bxtd's inside the client's frame_read or the proxy's backend
	// exchange) appear once, at the innermost level; the remainder is
	// reported as unattributed, never spread over the rows.
	//
	// The stack runs on one core, and on mux-proxied bxtproxy relays a
	// connection's streams one batch at a time, so where several lanes
	// share the stack a batch first waits its round trip minus the stack's
	// batch period behind the other lanes; its own stages fit in the
	// period. A lone direct lane's stages simply follow one another. The
	// client-side marshal and parse of a mux stream overlap its siblings'
	// relays, so there they sit inside the wait.
	var rows []ledgerRow
	add := func(name string, us float64, source string) { rows = append(rows, ledgerRow{name, us, source}) }
	e2e := lr.all.meanLatency()
	if lr.w.lanes() > 1 {
		add("lanes.queued_behind_siblings", e2e-el*1e6/batches, "round trip minus the stack's batch period")
	}
	if lr.w.streams > 0 {
		add("proxy.relay_self_us", relaySelf, "bxtproxy backend_exchange + frame_write minus bxtd stages")
	} else {
		add("client.frame_write_us", m["client.frame_write_us"].Value, "client Tracer hook: marshal + send")
		add("trace.parse_batch", m["trace.parse_batch_ns"].Value/1e3, "bxtd request parse, replayed")
	}
	add("server.admission_us", sAdm, "bxtd stage histogram")
	add("server.codec_encode_us", sEnc, "bxtd stage histogram")
	add("server.phy_account_us", sAcc, "bxtd stage histogram")
	add("server.frame_write_us", sWrite, "bxtd stage histogram")
	if lr.w.streams == 0 {
		add("trace.parse_reply", m["trace.parse_reply_ns"].Value/1e3, "client reply parse, replayed")
	}

	attributed := 0.0
	for _, r := range rows {
		attributed += r.us
	}
	unattributed := e2e - attributed
	put("ledger.unattributed_us", "us", unattributed)
	// Only the client's Config.Tracer hook is switched between slices; bxtd
	// and bxtproxy stage histograms are always on. Interleaving the slices
	// makes the host's drift fall on both sides alike.
	off, on := lr.hookOff.meanLatency(), lr.hookOn.meanLatency()
	put("ledger.tracing_overhead_pct", "%", 100*(on-off)/off)

	fmt.Fprintf(info, "ledger e2e_mean_us %.3f (traced mean round trip over %d batches)\n", e2e, lr.all.done)
	for _, r := range rows {
		fmt.Fprintf(info, "ledger row %s %.3f (%s)\n", r.name, r.us, r.source)
	}
	fmt.Fprintf(info, "ledger row ledger.unattributed_us %.3f (round trip minus the rows above: socket reads, unstaged framing, scheduling and GC)\n", unattributed)
	hook := "client Config.Tracer hook"
	if lr.w.streams > 0 {
		hook = "nothing: client.Mux never calls the Tracer, so the figure is noise between slices"
	}
	fmt.Fprintf(info, "ledger tracing_overhead %.3f%% (mean round trip %.3f us over %d batches in slices with the hook on, %.3f us over %d with it off; toggled: %s)\n",
		100*(on-off)/off, on, lr.hookOn.done, off, lr.hookOff.done, hook)

	floor := -ledgerSlack * e2e
	var neg []string
	for _, r := range append(rows, ledgerRow{name: "ledger.unattributed_us", us: unattributed}) {
		if r.us < floor {
			neg = append(neg, r.name)
		}
	}
	if len(neg) == 0 {
		fmt.Fprintf(info, "ledger check PASS: no row below %.3f us (-%.0f%% of the round trip)\n", floor, 100*ledgerSlack)
	} else {
		fmt.Fprintf(info, "ledger check FAIL: %v below %.3f us, so the rows over-attribute the round trip\n", neg, floor)
	}
	return m, len(neg) == 0
}
