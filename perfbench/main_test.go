package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts res carries exactly the wanted metrics, each with
// its declared unit.
func checkMetrics(t *testing.T, res result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not printed", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
}

// checkLedger asserts the traced ledger's rows, unattributed included, sum
// to the traced end-to-end mean, that none of them is negative beyond the
// ledger's slack (a negative row or remainder means the rows over-attribute
// the round trip), that the run's own ledger check passed, and that the
// printed unattributed row is the reported metric.
func checkLedger(t *testing.T, info string, res result) {
	t.Helper()
	var e2e, sum, unattributed float64
	var values []float64
	var names []string
	rows := 0
	sc := bufio.NewScanner(strings.NewReader(info))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || f[0] != "ledger" {
			continue
		}
		switch f[1] {
		case "e2e_mean_us":
			e2e, _ = strconv.ParseFloat(f[2], 64)
		case "row":
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				t.Fatalf("ledger row %q: %v", sc.Text(), err)
			}
			sum += v
			rows++
			values = append(values, v)
			names = append(names, f[2])
			if f[2] == "ledger.unattributed_us" {
				unattributed = v
			}
		}
	}
	if e2e <= 0 || rows < 3 {
		t.Fatalf("no ledger printed:\n%s", info)
	}
	// Rows print with three decimals.
	if math.Abs(sum-e2e) > 0.001*float64(rows+1) {
		t.Errorf("ledger rows sum to %.3f us, traced end-to-end mean is %.3f us", sum, e2e)
	}
	for i, v := range values {
		if v < -ledgerSlack*e2e {
			t.Errorf("ledger row %s = %.3f us, below -%.0f%% of the %.3f us round trip", names[i], v, 100*ledgerSlack, e2e)
		}
	}
	if !strings.Contains(info, "ledger check PASS") {
		t.Errorf("the run's ledger check did not pass:\n%s", info)
	}
	if !strings.Contains(info, "ledger tracing_overhead") {
		t.Errorf("no tracing overhead line in the ledger")
	}
	if got := res.Metrics["ledger.unattributed_us"].Value; math.Abs(got-unattributed) > 0.001 {
		t.Errorf("ledger.unattributed_us metric %.4f, ledger row %.3f", got, unattributed)
	}
}

// TestWorkloads runs every workload briefly, untraced on two seeds and
// traced on one, and checks the output contract of each run.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	suite := suiteTraces()
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			a, b := newSource(w, 1, 0, suite).next(), newSource(w, 2, 0, suite).next()
			same := true
			for i := range a {
				same = same && string(a[i].Data) == string(b[i].Data)
			}
			if same {
				t.Errorf("seeds 1 and 2 open with the same batch")
			}
			for _, tc := range []struct {
				seed   int64
				traced bool
				want   map[string]string
			}{{1, false, e2e}, {2, false, e2e}, {1, true, layer}} {
				var info bytes.Buffer
				res, err := run(w, tc.seed, 400*time.Millisecond, tc.traced, &info)
				if err != nil {
					t.Fatalf("seed %d traced %v: %v", tc.seed, tc.traced, err)
				}
				if !res.Correct || !strings.Contains(info.String(), "verify PASS") {
					t.Fatalf("seed %d traced %v: verification failed:\n%s", tc.seed, tc.traced, info.String())
				}
				if res.Attempted < 1 || res.Failed > res.Attempted {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				checkMetrics(t, res, tc.want)
				if tc.traced {
					checkLedger(t, info.String(), res)
				}
			}
		})
	}
}
