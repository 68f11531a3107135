// Command pgbench reproduces the paper's evaluation section: it runs the
// sweep behind every figure (9a–14) on synthetic PPI-like data and prints
// paper-style series tables.
//
// Usage:
//
//	pgbench [-scale tiny|small|full] [-fig all|9a|9b|10|11|12|13|14|scaling|filter|churn|perf]
//	        [-workers N] [-seed N] [-json out.json] [-churn rates]
//	        [-baseline BENCH_baseline.json] [-baseline-tolerance 0.15]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Absolute timings are machine-dependent; the reproduction target is the
// shape of each series (see EXPERIMENTS.md).
//
// -workers N runs every query's candidate pipeline on a pool of N
// goroutines (results are unchanged; only timings move). -fig scaling
// prints a dedicated parallel-speedup table sweeping the worker count,
// -fig filter profiles the structural phase — the inverted-postings
// scan against the dense count-matrix oracle — as the database grows,
// and -fig churn profiles query p50/p99 latency while a background
// writer mutates the database (add/remove) at each of the -churn rates;
// none of these is part of the paper's evaluation, so -fig all (the
// default) covers the paper figures only and they must be requested
// explicitly.
//
// -fig perf runs the fixed steady-state workloads (query/topk/batch and
// binary snapshot load) with deterministic row and sample structure —
// only the latency cells vary between machines — which is what the
// checked-in BENCH_baseline.json pins.
//
// -json out.json additionally writes every produced table as
// machine-readable series — figure name, headers, raw rows, per-column
// numeric series against the first column as x, and the figure's wall
// time — so the performance trajectory can be tracked across commits
// (BENCH_*.json artifacts). Figures, series, and rows appear in a fixed
// order, and nothing in the export besides wall_ms depends on the clock.
//
// -baseline old.json compares this run's p50/p99 columns against a
// previous -json export (figures matched by name, rows by first cell;
// wall_ms is ignored). Any latency more than -baseline-tolerance above
// the baseline exits 4 — the CI perf gate; refresh the baseline with
// `pgbench -scale tiny -fig perf -seed 1 -json BENCH_baseline.json` when
// a slowdown is intended.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"probgraph/internal/experiments"
	"probgraph/internal/obs"
	"probgraph/internal/stats"
)

// seriesJSON is one y-column of a table plotted against the first column.
type seriesJSON struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// figureJSON is one table's machine-readable export.
type figureJSON struct {
	Figure  string       `json:"figure"`
	Title   string       `json:"title"`
	Headers []string     `json:"headers"`
	Rows    [][]string   `json:"rows"`
	Series  []seriesJSON `json:"series"`
	WallMS  float64      `json:"wall_ms"`
}

// main is a thin shell around run: os.Exit skips defers, so every defer
// (profile flushing above all) lives inside run, which only ever returns.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes pgbench and returns its exit code: 0 success, 1 runtime
// error, 2 flag/validation error, 4 baseline latency regression. The
// single deferred Flush makes profile output exit-safe on every path,
// the regression gate included.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("pgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "small", "experiment scale: tiny, small, full")
	fig := fs.String("fig", "all", "figure to run: all (= every paper figure), 9a, 9b, 10, 11, 12, 13, 14, or scaling/filter/churn/perf (extra, never implied by all)")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 1, "candidate-evaluation worker pool size (<0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write machine-readable per-figure series to this file")
	churnRates := fs.String("churn", "0,20,100",
		"comma-separated background mutation rates (mutations/s) for -fig churn")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering index build + figures to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
	baseline := fs.String("baseline", "", "compare this run's p50/p99 columns against a previous -json export; regressions beyond the tolerance exit 4")
	baselineTol := fs.Float64("baseline-tolerance", 0.15,
		"allowed fractional p50/p99 regression vs -baseline (0.15 = 15%)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	profiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "pgbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := profiles.Flush(); err != nil {
			fmt.Fprintf(stderr, "pgbench: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	// Knob validation after profile start, so even a rejected invocation
	// leaves well-formed (if tiny) profile files behind.
	if *baselineTol < 0 {
		fmt.Fprintf(stderr, "pgbench: -baseline-tolerance must be >= 0, got %v\n", *baselineTol)
		return 2
	}
	var churn []float64
	if strings.EqualFold(*fig, "churn") {
		if churn, err = parseRates(*churnRates); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 2
		}
	}

	start := time.Now()
	fmt.Fprintf(stdout, "pgbench: scale=%s fig=%s seed=%d workers=%d\n", *scale, *fig, *seed, *workers)
	env, err := experiments.NewEnv(experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers})
	if err != nil {
		fmt.Fprintf(stderr, "pgbench: %v\n", err)
		return 1
	}
	build := env.DB.View().Build
	fmt.Fprintf(stdout, "database: %d graphs, %d PMI features, index built in %v\n\n",
		env.DB.Len(), build.Features, build.FeatureTime+build.PMITime+build.StructTime)

	var figures []figureJSON
	want := func(name string) bool {
		return *fig == "all" || strings.EqualFold(*fig, name) ||
			(len(name) > 2 && strings.EqualFold(*fig, name[:2]))
	}
	// runFig executes one figure, renders its tables, and records them
	// with the figure's wall time split evenly across its tables.
	runFig := func(name string, f func() ([]*stats.Table, error)) error {
		t0 := time.Now()
		tables, err := f()
		wall := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return err
		}
		for _, t := range tables {
			t.Render(stdout)
			fmt.Fprintln(stdout)
			figures = append(figures, tableJSON(name, t, wall/float64(len(tables))))
		}
		return nil
	}
	one := func(f func() (*stats.Table, error)) func() ([]*stats.Table, error) {
		return func() ([]*stats.Table, error) {
			t, err := f()
			if err != nil {
				return nil, err
			}
			return []*stats.Table{t}, nil
		}
	}
	two := func(f func() (*stats.Table, *stats.Table, error)) func() ([]*stats.Table, error) {
		return func() ([]*stats.Table, error) {
			a, b, err := f()
			if err != nil {
				return nil, err
			}
			return []*stats.Table{a, b}, nil
		}
	}

	type figureRun struct {
		name string
		on   bool
		f    func() ([]*stats.Table, error)
	}
	for _, fr := range []figureRun{
		{"9a", want("9a"), one(env.Fig9a)},
		{"9b", want("9b"), one(env.Fig9b)},
		{"10", want("10"), two(env.Fig10)},
		{"11", want("11"), two(env.Fig11)},
		{"12", want("12"), env.Fig12},
		{"13", want("13"), one(env.Fig13)},
		{"14", want("14"), one(env.Fig14)},
		{"scaling", strings.EqualFold(*fig, "scaling"),
			one(func() (*stats.Table, error) { return env.Scaling(nil) })},
		{"filter", strings.EqualFold(*fig, "filter"),
			one(func() (*stats.Table, error) { return env.Filter(nil) })},
		{"churn", strings.EqualFold(*fig, "churn"),
			one(func() (*stats.Table, error) { return env.Churn(churn) })},
		{"perf", strings.EqualFold(*fig, "perf"), one(env.Perf)},
	} {
		if !fr.on {
			continue
		}
		if err := runFig(fr.name, fr.f); err != nil {
			fmt.Fprintf(stderr, "pgbench: %v\n", err)
			return 1
		}
	}

	// Profiles cover build + figures: flush here so the JSON export and
	// baseline comparison stay out of the measurement. The deferred Flush
	// is idempotent, so this early call costs the later one nothing.
	if err := profiles.Flush(); err != nil {
		fmt.Fprintf(stderr, "pgbench: %v\n", err)
		return 1
	}

	if *jsonPath != "" {
		out := struct {
			Scale   string       `json:"scale"`
			Seed    int64        `json:"seed"`
			Workers int          `json:"workers"`
			WallMS  float64      `json:"wall_ms"`
			Figures []figureJSON `json:"figures"`
		}{*scale, *seed, *workers, float64(time.Since(start).Microseconds()) / 1000, figures}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(stderr, "pgbench: %v\n", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "pgbench: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "pgbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d figure series to %s\n", len(figures), *jsonPath)
	}
	if *baseline != "" {
		regressions, err := compareBaseline(*baseline, figures, *baselineTol)
		if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		if len(regressions) > 0 {
			fmt.Fprintf(stderr, "pgbench: %d latency regression(s) beyond %.0f%% vs %s:\n",
				len(regressions), *baselineTol*100, *baseline)
			for _, r := range regressions {
				fmt.Fprintf(stderr, "  %s\n", r)
			}
			return 4
		}
		fmt.Fprintf(stdout, "baseline check passed: within %.0f%% of %s\n", *baselineTol*100, *baseline)
	}
	fmt.Fprintf(stdout, "pgbench done in %v\n", time.Since(start))
	return 0
}

// compareBaseline checks this run's latency columns against a previous
// -json export. Figures are matched by name, rows by their first cell
// (the workload / x value), and only columns whose header mentions p50 or
// p99 are compared — wall_ms and every other machine-varying field in the
// export are ignored, so the payload carries no timestamps that could
// make the comparison flap. A current value regresses when it exceeds
// baseline·(1+tol); faster-than-baseline is never an error. Rows or
// figures present on only one side are skipped: the gate guards latency,
// not schema drift (tests pin the schema).
func compareBaseline(path string, current []figureJSON, tol float64) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pgbench: reading baseline: %w", err)
	}
	var base struct {
		Figures []figureJSON `json:"figures"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("pgbench: parsing baseline %s: %w", path, err)
	}
	baseRows := map[string]map[string][]string{} // figure -> row key -> cells
	baseHeaders := map[string][]string{}
	for _, f := range base.Figures {
		rows := map[string][]string{}
		for _, row := range f.Rows {
			if len(row) > 0 {
				rows[row[0]] = row
			}
		}
		baseRows[f.Figure] = rows
		baseHeaders[f.Figure] = f.Headers
	}

	var regressions []string
	compared := 0
	for _, f := range current {
		rows, ok := baseRows[f.Figure]
		if !ok {
			continue
		}
		for col, h := range f.Headers {
			if !strings.Contains(h, "p50") && !strings.Contains(h, "p99") {
				continue
			}
			// Column positions must agree for the header match to mean
			// the same measurement on both sides.
			if bh := baseHeaders[f.Figure]; col >= len(bh) || bh[col] != h {
				continue
			}
			for _, row := range f.Rows {
				if len(row) <= col {
					continue
				}
				bRow, ok := rows[row[0]]
				if !ok || len(bRow) <= col {
					continue
				}
				cur, errC := parseCell(row[col])
				old, errO := parseCell(bRow[col])
				if errC != nil || errO != nil || old <= 0 {
					continue
				}
				compared++
				if cur > old*(1+tol) {
					regressions = append(regressions,
						fmt.Sprintf("%s[%s] %s: %.4g ms vs baseline %.4g ms (+%.0f%%)",
							f.Figure, row[0], h, cur, old, (cur/old-1)*100))
				}
			}
		}
	}
	if compared == 0 {
		return nil, fmt.Errorf("pgbench: baseline %s shares no comparable p50/p99 cells with this run (figure/flag mismatch?)", path)
	}
	return regressions, nil
}

// tableJSON converts a rendered table to its export form: raw rows always,
// plus numeric series (per non-x column) when the cells parse as numbers.
// Non-numeric cells (verifier names, "n/a") simply omit that point, so a
// series' x and y stay aligned.
func tableJSON(name string, t *stats.Table, wallMS float64) figureJSON {
	fj := figureJSON{
		Figure:  name,
		Title:   t.Title,
		Headers: t.Headers,
		Rows:    t.Rows(),
		Series:  []seriesJSON{},
		WallMS:  wallMS,
	}
	if len(t.Headers) < 2 {
		return fj
	}
	for col := 1; col < len(t.Headers); col++ {
		s := seriesJSON{Name: t.Headers[col], X: []float64{}, Y: []float64{}}
		for _, row := range t.Rows() {
			if col >= len(row) {
				continue
			}
			x, errX := parseCell(row[0])
			y, errY := parseCell(row[col])
			if errX != nil || errY != nil {
				continue
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		if len(s.Y) > 0 {
			fj.Series = append(fj.Series, s)
		}
	}
	return fj
}

// parseCell reads a numeric table cell, tolerating unit-ish suffixes the
// tables use (q50 → 50 is NOT parsed; "12.5" and "3e-2" are).
func parseCell(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// parseRates reads the -churn flag: comma-separated non-negative
// mutations-per-second values.
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		r, err := strconv.ParseFloat(tok, 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("pgbench: bad -churn rate %q", tok)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pgbench: -churn lists no rates")
	}
	return out, nil
}
