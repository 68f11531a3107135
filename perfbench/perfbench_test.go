package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []specMetric                  `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) (spec, benchmarkSpec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var full benchmarkSpec
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatal(err)
	}
	return spec{EndToEnd: full.EndToEnd}, full
}

// TestSpecMatchesHarness pins BENCHMARK.json to what the harness prints.
func TestSpecMatchesHarness(t *testing.T) {
	_, full := loadSpec(t)
	var names []string
	for _, w := range full.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the harness", w.Name)
		}
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		// serve_fleet runs by name but is left out of BENCHMARK.json: its
		// open-loop latencies are not steady enough to gate (README.md).
		if !slices.Contains(names, w.name) && w.name != "serve_fleet" {
			t.Errorf("workload %q missing from BENCHMARK.json", w.name)
		}
	}
	same := func(kind string, got []metricDef, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i, d := range got {
			if d.name != want[i][0] || d.unit != want[i][1] {
				t.Errorf("%s metric %d: harness %s/%s, BENCHMARK.json %s/%s", kind, i, d.name, d.unit, want[i][0], want[i][1])
			}
		}
	}
	var e2e, layer [][2]string
	for _, m := range full.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	for _, m := range full.PerLayer {
		layer = append(layer, [2]string{m.Name, m.Unit})
	}
	same("end_to_end", endToEndMetrics, e2e)
	same("per_layer", perLayerMetrics, layer)
}

// TestQuartilesMatchPython checks the spread arithmetic against values
// Python's statistics.quantiles(n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1}, 0, 6},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareRefusesOtherEnvironments: results from another machine are
// never judged, whatever their numbers.
func TestCompareRefusesOtherEnvironments(t *testing.T) {
	sp, _ := loadSpec(t)
	env := environment{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPUModel: "cpu", Commit: "a"}
	rec := func(e environment, v float64) record {
		return record{Env: e, Workload: "verify_heavy", Seconds: 10,
			Metrics: map[string]metricValue{"query_p50_ms": {v, "ms"}}}
	}
	other := env
	other.Commit = "b"
	if _, err := compareRecords(sp, []record{rec(env, 1)}, []record{rec(other, 1)}); err != nil {
		t.Errorf("two commits on one machine must compare: %v", err)
	}
	for _, change := range []func(*environment){
		func(e *environment) { e.NumCPU = 4 },
		func(e *environment) { e.GOMAXPROCS = 1 },
		func(e *environment) { e.GoVersion = "go1.23" },
		func(e *environment) { e.CPUModel = "other" },
	} {
		moved := env
		change(&moved)
		if _, err := compareRecords(sp, []record{rec(env, 1)}, []record{rec(moved, 1)}); err == nil {
			t.Errorf("compared results from %+v and %+v", env, moved)
		}
	}
	if _, err := compareRecords(sp, []record{rec(env, 1), rec(other, 1)}, []record{rec(env, 1)}); err == nil {
		t.Error("a side mixing commits was compared")
	}
}

// sample is one measured pass's gated latency metrics.
type sample struct{ p50, p90, qps float64 }

// measureRounds runs rounds over the first n requests of each system and
// returns one sample per system per round. Within a round the systems
// take turns request by request, in an order rotated each round, so
// every system meets the same machine state: on a shared host,
// memory-bound work runs 10-20% slower for seconds at a time.
func measureRounds(ctx context.Context, systems []*sut, n, rounds int) [][]sample {
	out := make([][]sample, len(systems))
	for r := 0; r < rounds; r++ {
		runtime.GC()
		lat := make([][]float64, len(systems))
		busy := make([]time.Duration, len(systems))
		for i := 0; i < n; i++ {
			for k := range systems {
				j := (r + k) % len(systems)
				o := systems[j].exec(ctx, systems[j].reqs[i])
				if o.err != nil {
					panic(o.err)
				}
				lat[j] = append(lat[j], ms(o.lat))
				busy[j] += o.lat
			}
		}
		for j := range systems {
			out[j] = append(out[j], sample{percentile(lat[j], 0.5), percentile(lat[j], 0.9), float64(n) / busy[j].Seconds()})
		}
	}
	return out
}

func field(xs []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func metric(sp spec, name string) specMetric {
	for _, m := range sp.EndToEnd {
		if m.Name == name {
			return m
		}
	}
	panic("no metric " + name)
}

// TestJudge pins the verdict rule on constructed values.
func TestJudge(t *testing.T) {
	m := specMetric{Name: "query_p50_ms", Better: "lower", Bound: 0.2}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	drifting := []float64{100, 120, 90, 110, 95, 115, 100, 105, 92, 118}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		base, next []float64
		paired     bool
		want       string
	}{
		{steady, scale(steady, 1.10), true, "worse, within bound"},
		{steady, scale(steady, 1.30), true, "worse, beyond bound"},
		{steady, scale(steady, 0.70), true, "better, beyond bound"},
		{steady, steady, true, "within bound"},
		{steady, []float64{70, 150, 150, 150, 70, 150, 150, 70, 150, 150}, true, "unresolved"},
		// A 12% slowdown under drift that moves both sides of each pair:
		// resolved from the pairs, not from unpaired runs.
		{drifting, scale(drifting, 1.12), true, "worse, within bound"},
		{drifting, scale(drifting, 1.12), false, "within bound"},
	} {
		v := judge(m, c.base, c.next, c.paired)
		if v.String() != c.want || v.Fails() != (c.want == "worse, beyond bound") {
			t.Errorf("%v -> %v (paired %v): %s, want %s", c.base, c.next, c.paired, v, c.want)
		}
	}
}

// TestSensitivitySMPN is the benchmark's A/B check: raising the SMP
// sample count N by 20% in the generated requests — an input, not a code
// change — must resolve as worse on verify_heavy's query_p50_ms, leave
// filter_heavy's (verification-light) latencies within their bounds, and
// an A/A pair must pass. It uses compare's verdict rule with the bounds
// in BENCHMARK.json, on ten rounds with the order rotated each round.
func TestSensitivitySMPN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the database and measures for about four minutes")
	}
	sp, _ := loadSpec(t)
	ctx := context.Background()
	c, err := newCorpus()
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := c.buildDB()
	if err != nil {
		t.Fatal(err)
	}
	const defaultN, raisedN = 1476, 1771 // verify.Options' default N, and +20%
	system := func(n, edges int, eps float64) *sut {
		b := &bench{cfg: config{seed: 7, seconds: 1, smpN: n}, corpus: c}
		s, err := newInProcess(ctx, b, db, db, edges, eps)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const pairs = 10
	check := func(name string, sa, sb []sample, f func(sample) float64, ok func(verdict) bool) {
		v := judge(metric(sp, name), field(sa, f), field(sb, f), true)
		t.Logf("%s: base %.3f new %.3f change %+.1f%% spreads %.1f%%/%.1f%% lost %d won %d of %d -> %s",
			name, v.BaseMed, v.NewMed, 100*v.Change, 100*v.BaseSpread, 100*v.NewSpread, v.Lost, v.Won, v.Pairs, v)
		if !ok(v) {
			t.Errorf("%s: %s", name, v)
		}
	}
	resolvedWorse := func(v verdict) bool { return v.Resolved == "worse" }
	withinBound := func(v verdict) bool { return !v.Beyond }
	passes := func(v verdict) bool { return !v.Fails() }
	p50 := func(s sample) float64 { return s.p50 }
	p90 := func(s sample) float64 { return s.p90 }
	qps := func(s sample) float64 { return s.qps }

	// Each run is one whole pass over the pool. The A/A pair is a second,
	// identical system measured in the same rounds.
	verifyPool := len(c.queries[4])
	runs := measureRounds(ctx, []*sut{system(defaultN, 4, 0.3), system(raisedN, 4, 0.3), system(defaultN, 4, 0.3)}, verifyPool, pairs)
	t.Log("verify_heavy, N +20%:")
	check("query_p50_ms", runs[0], runs[1], p50, resolvedWorse)
	t.Log("verify_heavy, A/A:")
	check("query_p50_ms", runs[0], runs[2], p50, passes)
	check("query_p90_ms", runs[0], runs[2], p90, passes)
	check("throughput_qps", runs[0], runs[2], qps, passes)

	filterPool := len(c.queries[filterEdges])
	runs = measureRounds(ctx, []*sut{system(defaultN, filterEdges, 0.9), system(raisedN, filterEdges, 0.9)}, filterPool, pairs)
	t.Log("filter_heavy, N +20%:")
	check("query_p50_ms", runs[0], runs[1], p50, withinBound)
	check("query_p90_ms", runs[0], runs[1], p90, withinBound)
}

// TestServedWorkloadsAnswerCorrectly runs the two HTTP workloads briefly,
// traced (which also runs them untraced), and checks every answer held
// and every per-layer metric was reported.
func TestServedWorkloadsAnswerCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds databases and serves over loopback")
	}
	for _, name := range []string{"serve_fleet", "churn"} {
		w, _ := findWorkload(name)
		rec, report, err := runWorkload(context.Background(), config{workload: name, seed: 3, seconds: 1, trace: true, root: t.TempDir()}, w)
		if err != nil {
			t.Fatalf("%s: %v\n%v", name, err, report)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d of %d\n%v", name, rec.Correct, rec.Failed, rec.Attempted, report)
		}
		for _, d := range perLayerMetrics {
			if _, ok := rec.Metrics[d.name]; !ok {
				t.Errorf("%s: no %s", name, d.name)
			}
		}
		for _, m := range []string{"core.query_ms", "core.mutate_ms", "server.http_ms", "cluster.fanout_ms", "snapbin.open_ms"} {
			if rec.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, rec.Metrics[m].Value)
			}
		}
	}
}
