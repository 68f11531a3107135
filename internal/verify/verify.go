// Package verify computes the subgraph similarity probability (SSP) of a
// candidate graph in the verification phase (paper §5).
//
// By Lemma 1 and Equation 22, Pr(q ⊆sim g) = Pr(Bf1 ∨ … ∨ Bfm), where the
// Bfi range over the embeddings of all relaxed queries rq ∈ U in the certain
// graph gc — a DNF whose clauses assert that an embedding's edges all exist.
//
// SMP is the paper's Algorithm 5: the Karp–Luby / coverage Monte-Carlo
// estimator. Clause probabilities Pr(Bfi) come from the exact inference
// engine (the paper's junction-tree step), worlds conditioned on a clause
// come from evidence-conditioned samplers over the same elimination plan,
// and the estimator counts a sample only when the chosen clause is the
// first satisfied one. The estimate is V·Cnt/N with V = Σ Pr(Bfi); the
// N = ⌈4·ln(2/ξ)/τ²⌉ samples give relative error τ with confidence 1−ξ on
// Pr ≥ V/m scales (Mitzenmacher–Upfal).
//
// Exact is the paper's Equation 21 inclusion–exclusion baseline with
// exponential cost in the clause count; it exists to reproduce the "Exact"
// curves of Figures 9a and 13.
package verify

import (
	"fmt"
	"math"
	"math/rand"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// Options tunes the SMP estimator.
type Options struct {
	// Xi and Tau set the sample count N = ⌈4·ln(2/ξ)/τ²⌉ (defaults 0.05,
	// 0.1 → N ≈ 1476); N overrides when positive.
	Xi, Tau float64
	N       int
	// Seed drives sampling.
	Seed int64
	// MaxClauses caps the DNF; beyond it the clause list is truncated to
	// the most probable clauses, which makes the estimate a lower bound.
	// Default 512.
	MaxClauses int
}

func (o Options) withDefaults() Options {
	if o.Xi == 0 {
		o.Xi = 0.05
	}
	if o.Tau == 0 {
		o.Tau = 0.1
	}
	if o.N == 0 {
		o.N = int(math.Ceil(4 * math.Log(2/o.Xi) / (o.Tau * o.Tau)))
	}
	if o.MaxClauses == 0 {
		o.MaxClauses = 512
	}
	return o
}

// Report is the outcome of one SMP estimate.
type Report struct {
	// SSP is the estimate of Pr(∨ clauses).
	SSP float64
	// Truncated reports that the DNF had more than MaxClauses clauses and
	// only the most probable were sampled, so SSP is a lower bound.
	Truncated bool
}

// SMP estimates Pr(∨ clauses) where each clause asserts all of its edges
// exist. Empty input yields 0; a clause with no uncertain edges yields 1.
func SMP(eng *prob.Engine, clauses []graph.EdgeSet, opt Options) (float64, error) {
	r, err := SMPReport(eng, clauses, opt)
	return r.SSP, err
}

// SMPReport is SMP reporting whether the clause list was truncated.
//
// Each clause gets one conditioned sampler, built by a single replay of
// the engine's elimination plan; its Z gives Pr(Bfi) = Z(Bfi)/Z, and it
// draws the worlds conditioned on Bfi. Past MaxClauses, the probabilities
// come from table-free replays instead, and only the kept clauses get a
// sampler; the bits are the same either way. A draw is tested against the
// earlier clauses on the sampled assignment itself, over each clause's
// uncertain variables, without materializing the world.
func SMPReport(eng *prob.Engine, clauses []graph.EdgeSet, opt Options) (Report, error) {
	opt = opt.withDefaults()
	if len(clauses) == 0 {
		return Report{}, nil
	}
	z := eng.Z()
	if z == 0 {
		return Report{}, fmt.Errorf("verify: model has zero total weight")
	}
	truncate := len(clauses) > opt.MaxClauses
	var samplers []*prob.Sampler
	if !truncate {
		samplers = make([]*prob.Sampler, len(clauses))
	}
	probs := make([]float64, len(clauses))
	v := 0.0
	for i, c := range clauses {
		var p float64
		if truncate {
			var err error
			if p, err = eng.ProbAllPresent(c); err != nil {
				return Report{}, err
			}
		} else {
			s, err := conditioned(eng, clauses, i)
			if err != nil {
				return Report{}, err
			}
			samplers[i], p = s, s.Z()/z
		}
		if p >= 1 {
			return Report{SSP: 1}, nil // certain clause: the union is certain
		}
		probs[i] = p
		v += p
	}
	if v <= 0 {
		return Report{}, nil
	}
	var rep Report
	if truncate {
		var idx []int
		idx, v = topClauses(probs, opt.MaxClauses)
		cs, ps := make([]graph.EdgeSet, len(idx)), make([]float64, len(idx))
		for i, id := range idx {
			cs[i], ps[i] = clauses[id], probs[id]
		}
		clauses, probs = cs, ps
		samplers = make([]*prob.Sampler, len(clauses))
		for i := range clauses {
			s, err := conditioned(eng, clauses, i)
			if err != nil {
				return Report{}, err
			}
			samplers[i] = s
		}
		rep.Truncated = true
	}
	// Cumulative distribution for clause selection.
	cum := make([]float64, len(clauses))
	acc := 0.0
	for i, p := range probs {
		acc += p
		cum[i] = acc
	}
	vars := clauseVars(eng.PGraph(), clauses)
	assign := make([]bool, eng.NumUncertain())
	rng := rand.New(rand.NewSource(opt.Seed))
	cnt := 0
	for s := 0; s < opt.N; s++ {
		// Pick clause i with probability probs[i]/v, draw a world given it,
		// and count the draw when i is the first satisfied clause.
		i := lowerBound(cum, rng.Float64()*v)
		samplers[i].SampleAssign(rng, assign)
		if !anySatisfied(vars[:i], assign) {
			cnt++
		}
	}
	rep.SSP = v * float64(cnt) / float64(opt.N)
	if rep.SSP > 1 {
		rep.SSP = 1
	}
	return rep, nil
}

// conditioned builds the sampler of worlds in which clause i holds.
func conditioned(eng *prob.Engine, clauses []graph.EdgeSet, i int) (*prob.Sampler, error) {
	s, err := eng.NewSampler(prob.AllPresent(clauses[i]))
	if err != nil {
		return nil, fmt.Errorf("verify: conditioning on clause %d: %w", i, err)
	}
	return s, nil
}

// clauseVars lists each clause's uncertain edges as variable indices;
// certain edges hold in every world and drop out of the test.
func clauseVars(pg *prob.PGraph, clauses []graph.EdgeSet) [][]int {
	out := make([][]int, len(clauses))
	for i, c := range clauses {
		for _, ed := range c.Slice() {
			if v, ok := pg.VarOf(ed); ok {
				out[i] = append(out[i], v)
			}
		}
	}
	return out
}

// anySatisfied reports whether the assignment makes every variable of some
// clause present.
func anySatisfied(vars [][]int, assign []bool) bool {
	for _, vs := range vars {
		all := true
		for _, v := range vs {
			if !assign[v] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Exact computes Pr(∨ clauses) by inclusion–exclusion (Equation 21),
// rejecting inputs beyond maxClauses (0 selects 20).
func Exact(eng *prob.Engine, clauses []graph.EdgeSet, maxClauses int) (float64, error) {
	if maxClauses == 0 {
		maxClauses = 20
	}
	clauses = dedupClauses(clauses)
	return prob.ProbDNFExact(eng, clauses, maxClauses)
}

// DedupClauses removes duplicate and superset clauses: a clause that
// contains another is absorbed by it in a union of conjunctions.
func DedupClauses(clauses []graph.EdgeSet) []graph.EdgeSet {
	return dedupClauses(clauses)
}

func dedupClauses(clauses []graph.EdgeSet) []graph.EdgeSet {
	var out []graph.EdgeSet
	seen := make(map[string]bool)
	for _, c := range clauses {
		k := c.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	// Absorption: drop clauses that are supersets of another clause.
	var kept []graph.EdgeSet
	for i, c := range out {
		absorbed := false
		for j, d := range out {
			if i == j {
				continue
			}
			if c.ContainsAll(d) && !d.ContainsAll(c) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			kept = append(kept, c)
		}
	}
	// Among equal sets the first survived dedup already.
	return kept
}

// topClauses returns the indices of the n most probable clauses and
// their total probability (truncation makes SMP a lower-bound estimate;
// callers see MaxClauses only on adversarial inputs).
func topClauses(probs []float64, n int) ([]int, float64) {
	idx := make([]int, len(probs))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort for the top n (n ≪ len in practice).
	v := 0.0
	for i := 0; i < n && i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if probs[idx[j]] > probs[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
		v += probs[idx[i]]
	}
	return idx[:n], v
}

// lowerBound returns the first index with cum[i] >= x.
func lowerBound(cum []float64, x float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
