// Command perfbench is the repository's benchmark: it drives four seeded
// workloads against the T-PS engine, the pgserve server and a pgproxy
// fleet from one process, checks every answer against in-process
// references, and prints end-to-end metrics (untraced) or per-layer
// metrics (traced). See README.md.
//
//	perfbench/run.sh --workload verify_heavy --seed 1 --seconds 10 --trace 0
//	perfbench/run.sh compare base/*.json -- new/*.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are gated (BENCHMARK.json end_to_end): every workload
// reports each of them on an untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"heap_live_mb", "MB"},
}

// extraMetrics apply to some workloads only. They are printed and kept in
// result records (and compared by `compare`) but are not in the final
// line, which must carry the same metric set for every workload.
var extraMetrics = []metricDef{
	{"peak_rss_mb", "MB"},
	{"query_p99_ms", "ms"},
	{"topk_p50_ms", "ms"},
	{"topk_tail_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"add_p50_ms", "ms"},
	{"add_p90_ms", "ms"},
	{"remove_p50_ms", "ms"},
	{"remove_p90_ms", "ms"},
	{"error_rate", "ratio"},
}

// perLayerMetrics are what a traced run reports (BENCHMARK.json per_layer).
var perLayerMetrics = []metricDef{
	{"simsearch.scan_ms", "ms"},
	{"simsearch.confirm_ms", "ms"},
	{"simsearch.scan_candidates", "count"},
	{"simsearch.confirmed", "count"},
	{"simsearch.confirm_yield", "ratio"},
	{"relax.ms", "ms"},
	{"relax.relaxed_queries", "count"},
	{"pmi.prune_ms", "ms"},
	{"pmi.pruned_by_upper", "count"},
	{"pmi.accepted_by_lower", "count"},
	{"pmi.decided_ratio", "ratio"},
	{"verify.clauses_ms", "ms"},
	{"verify.infer_ms", "ms"},
	{"verify.sample_ms", "ms"},
	{"verify.candidates", "count"},
	{"verify.clauses_per_candidate", "count"},
	{"verify.yield", "ratio"},
	{"core.query_ms", "ms"},
	{"core.mutate_ms", "ms"},
	{"server.http_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"cluster.fanout_ms", "ms"},
	{"cluster.shard_skew_ms", "ms"},
	{"snapbin.open_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"harness.generator_lag_ms", "ms"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smpN is the SMP sample count N in the generated in-process requests
	// (0: the engine default); the sensitivity test raises it.
	smpN int
	// root is the checkout: hashed into the commit field, and build output
	// goes below it.
	root string
	out  string
}

// bench is one process's run of one workload.
type bench struct {
	cfg    config
	corpus *corpus
	dir    string // private scratch directory for snapshot images
	env    environment
}

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full result of one run, as -out writes it and compare
// reads it.
type record struct {
	Env       environment            `json:"env"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	SMPN      int                    `json:"smp_n"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{root: "."} // the benchmark runs from the checkout root
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "traffic seed: request order, engine seeds, arrivals and mix")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "also write the full result record (environment, every metric) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	w, ok := findWorkload(cfg.workload)
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	rec, report, err := runWorkload(context.Background(), cfg, w)
	for _, line := range report {
		fmt.Fprintln(stdout, "#", line)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.out != "" {
		if err := writeRecord(cfg.out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = rec.Metrics[d.name]
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload sets the workload up, measures it and returns its record
// plus human-readable report lines.
func runWorkload(ctx context.Context, cfg config, w workload) (rec record, report []string, err error) {
	b := &bench{cfg: cfg, env: currentEnvironment(cfg.root)}
	rec = record{Env: b.env, Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		SMPN: cfg.smpN, Metrics: map[string]metricValue{}}
	envLine, _ := json.Marshal(b.env)
	report = append(report, fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%v", w.name, cfg.seed, cfg.seconds, cfg.trace),
		"env "+string(envLine))
	if b.dir, err = scratchDir(cfg.root); err != nil {
		return rec, report, err
	}
	defer os.RemoveAll(b.dir)
	if b.corpus, err = newCorpus(); err != nil {
		return rec, report, err
	}
	s, err := w.setup(ctx, b)
	if err != nil {
		return rec, report, fmt.Errorf("setting up %s: %w", w.name, err)
	}
	defer s.close()
	report = append(report, fmt.Sprintf("%s: %s; %d graphs", w.name, describe(s), s.db.Len()))
	window := time.Duration(cfg.seconds * float64(time.Second))

	var t *tally
	if cfg.trace {
		var layer map[string]float64
		var lines []string
		t, layer, lines, err = tracedRun(ctx, b, w, s, window)
		report = append(report, lines...)
		if err != nil {
			return rec, report, err
		}
		for _, d := range perLayerMetrics {
			rec.Metrics[d.name] = metricValue{layer[d.name], d.unit}
		}
	} else {
		runtime.GC()
		t = s.loop(ctx, window, nil)
		gated, extra := endToEnd(s, t)
		for _, d := range endToEndMetrics {
			rec.Metrics[d.name] = metricValue{gated[d.name], d.unit}
		}
		for _, d := range extraMetrics {
			if v, ok := extra[d.name]; ok {
				rec.Metrics[d.name] = metricValue{v, d.unit}
			}
		}
		for _, op := range t.ops() {
			report = append(report, fmt.Sprintf("%-6s n=%-6d p50 %.3f ms  p90 %.3f ms  max %.3f ms", op,
				len(t.lat[op]), percentile(t.lat[op], 0.5), percentile(t.lat[op], 0.9), percentile(t.lat[op], 1)))
		}
		for _, name := range slices.Sorted(maps.Keys(rec.Metrics)) {
			m := rec.Metrics[name]
			report = append(report, fmt.Sprintf("%-16s %.4f %s", name, m.Value, m.Unit))
		}
	}
	rec.Attempted, rec.Failed = t.attempted, t.failed
	rec.Correct = t.failed == 0 && t.attempted > 0
	if t.firstErr != nil {
		report = append(report, fmt.Sprintf("FAILED %d of %d operations; first: %v", t.failed, t.attempted, t.firstErr))
	}
	return rec, report, nil
}

func writeRecord(path string, rec record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Workload == "" {
		return rec, errors.New(path + ": not a perfbench result record")
	}
	return rec, nil
}
