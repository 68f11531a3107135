package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// spec is the part of BENCHMARK.json compare needs: each gated metric's
// direction and bound.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict is compare's finding for one metric.
type verdict struct {
	Metric          string
	BaseMed, NewMed float64
	BaseSpread      float64
	NewSpread       float64
	Change          float64 // relative change of the median, positive = worse
	// Resolved is "worse" or "better" when the new side lost (or won) at
	// least nine tenths of the pairs, ties counting for neither, and the
	// change exceeds the noise: for paired runs, the median of the paired
	// differences exceeds their interquartile distance; otherwise the
	// medians differ by more than the base side's interquartile distance.
	Resolved string
	Pairs    int
	Lost     int
	Won      int
	// Beyond is set when the median moved by more than the metric's bound
	// in the direction resolved, or in either direction unresolved.
	Beyond bool
}

// Fails reports whether the verdict fails the gate: a resolved change for
// the worse beyond the bound.
func (v verdict) Fails() bool { return v.Resolved == "worse" && v.Beyond }

func (v verdict) String() string {
	switch {
	case v.Resolved != "" && v.Beyond:
		return v.Resolved + ", beyond bound"
	case v.Resolved != "":
		return v.Resolved + ", within bound"
	case v.Beyond:
		return "unresolved"
	}
	return "within bound"
}

// judge compares one metric's values from two sides. When paired is set,
// base[i] and next[i] were measured as a pair (same seed, adjacent in
// time); otherwise every base value is paired with every new one.
func judge(m specMetric, base, next []float64, paired bool) verdict {
	v := verdict{Metric: m.Name, BaseMed: median(base), NewMed: median(next),
		BaseSpread: spread(base), NewSpread: spread(next)}
	worse := func(a, b float64) bool { // b is worse than a
		if m.Better == "higher" {
			return b < a
		}
		return b > a
	}
	if v.BaseMed != 0 {
		v.Change = (v.NewMed - v.BaseMed) / v.BaseMed
		if m.Better == "higher" {
			v.Change = -v.Change
		}
	}
	var diffs []float64
	pair := func(a, b float64) {
		v.Pairs++
		diffs = append(diffs, b-a)
		switch {
		case worse(a, b):
			v.Lost++
		case worse(b, a):
			v.Won++
		}
	}
	if paired && len(base) == len(next) {
		for i := range base {
			pair(base[i], next[i])
		}
	} else {
		for _, a := range base {
			for _, b := range next {
				pair(a, b)
			}
		}
	}
	// Paired runs share the machine's state, so their differences exclude
	// the drift a shared host adds to both sides; unpaired runs can only be
	// measured against the base side's own spread.
	var apart bool
	if paired && len(base) == len(next) {
		q1, q3 := quartiles(diffs)
		apart = math.Abs(median(diffs)) > q3-q1
	} else {
		q1, q3 := quartiles(base)
		apart = math.Abs(v.NewMed-v.BaseMed) > q3-q1
	}
	switch {
	case apart && 10*v.Lost >= 9*v.Pairs:
		v.Resolved = "worse"
		v.Beyond = v.Change > m.Bound
	case apart && 10*v.Won >= 9*v.Pairs:
		v.Resolved = "better"
		v.Beyond = v.Change < -m.Bound
	default:
		v.Beyond = math.Abs(v.Change) > m.Bound
	}
	return v
}

// compareRecords judges every gated metric of two sets of runs of one
// workload, pairing runs by seed when both sides ran the same seeds. It
// refuses records measured on different machines (nproc, GOMAXPROCS, Go
// version, CPU model), of different workloads or run settings, or a side
// that mixes commits.
func compareRecords(sp spec, base, next []record) ([]verdict, error) {
	if len(base) == 0 || len(next) == 0 {
		return nil, fmt.Errorf("compare: each side needs at least one result")
	}
	first := base[0]
	for _, side := range [][]record{base, next} {
		for _, r := range side {
			if r.Env.machine() != first.Env.machine() {
				return nil, fmt.Errorf("compare: refusing to compare results from different environments: %+v vs %+v",
					first.Env.machine(), r.Env.machine())
			}
			if r.Workload != first.Workload || r.Trace != first.Trace || r.Seconds != first.Seconds {
				return nil, fmt.Errorf("compare: results differ in workload or run settings (%s/%v/%gs vs %s/%v/%gs)",
					first.Workload, first.Trace, first.Seconds, r.Workload, r.Trace, r.Seconds)
			}
			if r.Env.Commit != side[0].Env.Commit {
				return nil, fmt.Errorf("compare: one side mixes commits %s and %s", side[0].Env.Commit, r.Env.Commit)
			}
		}
	}
	bySeed := func(rs []record) []record {
		return slices.SortedFunc(slices.Values(rs), func(a, b record) int { return cmp.Compare(a.Seed, b.Seed) })
	}
	base, next = bySeed(base), bySeed(next)
	paired := slices.EqualFunc(base, next, func(a, b record) bool { return a.Seed == b.Seed })
	var out []verdict
	for _, m := range sp.EndToEnd {
		var a, b []float64
		for _, r := range base {
			a = append(a, r.Metrics[m.Name].Value)
		}
		for _, r := range next {
			b = append(b, r.Metrics[m.Name].Value)
		}
		out = append(out, judge(m, a, b, paired))
	}
	return out, nil
}

// runCompare is `perfbench compare [-spec BENCHMARK.json] base... -- new...`.
// It exits 3 when it refuses the comparison and 4 when a metric is
// resolved worse beyond its bound.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sides [2][]record
	side := 0
	for _, a := range fs.Args() {
		if a == "--" {
			side++
			continue
		}
		if side > 1 {
			fmt.Fprintln(stderr, "perfbench compare: more than one --")
			return 2
		}
		r, err := readRecord(a)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
		sides[side] = append(sides[side], r)
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	vs, err := compareRecords(sp, sides[0], sides[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 3
	}
	code := 0
	fmt.Fprintf(stdout, "%s: %d base runs (%s) vs %d new runs (%s)\n", sides[0][0].Workload,
		len(sides[0]), sides[0][0].Env.Commit, len(sides[1]), sides[1][0].Env.Commit)
	for _, v := range vs {
		fmt.Fprintf(stdout, "%-16s base %.4f (spread %.1f%%)  new %.4f (spread %.1f%%)  change %+.1f%%  lost %d won %d of %d pairs  %s\n",
			v.Metric, v.BaseMed, 100*v.BaseSpread, v.NewMed, 100*v.NewSpread, 100*v.Change, v.Lost, v.Won, v.Pairs, v)
		if v.Fails() {
			code = 4
		}
	}
	return code
}
