package proxy_test

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"github.com/hpca18/bxt/internal/client"
	"github.com/hpca18/bxt/internal/obs"
)

// traceDoc mirrors the /debug/trace JSON shape shared by bxtd and bxtproxy.
type traceDoc struct {
	Total uint64 `json:"total"`
	Spans []struct {
		TraceID string `json:"trace_id"`
		Scheme  string `json:"scheme"`
		TotalNS int64  `json:"total_ns"`
		Stages  []struct {
			Stage string `json:"stage"`
			Nanos int64  `json:"ns"`
		} `json:"stages"`
	} `json:"spans"`
}

// getTrace fetches the /debug/trace spans recorded for traceID. The serving
// side rings a batch's span only after its reply is written and flushed, so
// the client can hold the reply before the span lands. getTrace therefore
// polls, until at least one span appears or traceWait elapses, and returns
// the last document it read. Each poll first yields for tracePoll: querying
// at once would compete for the CPU with the goroutine still finishing that
// reply write, and stretch the very stages the caller measures.
func getTrace(t *testing.T, metricsAddr string, traceID uint64) traceDoc {
	t.Helper()
	deadline := time.Now().Add(traceWait)
	for {
		time.Sleep(tracePoll)
		body := httpGet(t, "http://"+metricsAddr+"/debug/trace?trace="+obs.FormatTraceID(traceID))
		var doc traceDoc
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("decoding /debug/trace: %v\n%s", err, body)
		}
		if len(doc.Spans) > 0 || time.Now().After(deadline) {
			return doc
		}
	}
}

// traceWait bounds getTrace's wait for a span to reach the ring; tracePoll
// is its polling interval.
const (
	traceWait = 2 * time.Second
	tracePoll = 2 * time.Millisecond
)

// TestTraceThroughProxy is the fleet-wide tracing acceptance test: one
// trace id minted at the client must surface three correlated spans — the
// client's, the proxy's relay leg, and the backend's pipeline — each
// queryable from its own /debug/trace, with the durations nesting the way
// the legs nest: client round trip >= proxy backend_exchange >= the
// backend's processing stages.
func TestTraceThroughProxy(t *testing.T) {
	srv := startBackend(t, backendConfig())
	px := startProxy(t, proxyConfig(srv.Addr()))

	ccfg := retryClient()
	ccfg.Trace = obs.NewTraceRing(16)
	c, err := client.DialConfig(px.Addr(), "universal", 32, ccfg)
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(57))
	if _, err := c.Transcode(makeTxns(rng, 96, 32)); err != nil {
		t.Fatalf("Transcode: %v", err)
	}
	id := c.LastTraceID()
	if id == 0 {
		t.Fatal("client minted trace id 0")
	}

	cspans := ccfg.Trace.Find(id)
	if len(cspans) != 1 {
		t.Fatalf("client ring holds %d spans for the trace, want 1", len(cspans))
	}
	ctotal := cspans[0].Total()

	pdoc := getTrace(t, px.MetricsAddr(), id)
	if len(pdoc.Spans) != 1 {
		t.Fatalf("proxy /debug/trace returned %d spans for %s, want 1", len(pdoc.Spans), obs.FormatTraceID(id))
	}
	var exchange time.Duration
	for _, st := range pdoc.Spans[0].Stages {
		if st.Stage == string(obs.StageBackend) {
			exchange = time.Duration(st.Nanos)
		}
	}
	if exchange <= 0 {
		t.Fatalf("proxy relay span %+v carries no backend_exchange stage", pdoc.Spans[0])
	}

	bdoc := getTrace(t, srv.MetricsAddr(), id)
	if len(bdoc.Spans) != 1 {
		t.Fatalf("backend /debug/trace returned %d spans for %s, want 1", len(bdoc.Spans), obs.FormatTraceID(id))
	}
	var processing time.Duration
	for _, st := range bdoc.Spans[0].Stages {
		// frame_read includes the idle wait for the batch to arrive, so
		// only the strictly-nested processing stages bound the exchange.
		if st.Stage != string(obs.StageFrameRead) {
			processing += time.Duration(st.Nanos)
		}
	}
	if processing <= 0 {
		t.Fatalf("backend span %+v carries no processing stages", bdoc.Spans[0])
	}

	if ctotal < exchange {
		t.Errorf("client round trip %v shorter than the proxy's backend exchange %v", ctotal, exchange)
	}
	if exchange < processing {
		t.Errorf("proxy backend exchange %v shorter than the backend's processing %v", exchange, processing)
	}
}
