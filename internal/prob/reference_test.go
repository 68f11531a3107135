package prob

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"probgraph/internal/graph"
)

// This file keeps the inference engine's previous implementation as a
// bitwise oracle: recorded variable elimination over map-keyed factors,
// with evidence as unit factors, and backward sampling that evaluates
// every factor of a step under both values of its variable. The compiled
// plan must reproduce its order, its partition functions and its draws
// exactly.

type refFactor struct {
	vars []int
	tab  []float64
}

func (f *refFactor) eval(assign []bool) float64 {
	idx := 0
	for i, v := range f.vars {
		if assign[v] {
			idx |= 1 << i
		}
	}
	return f.tab[idx]
}

type refStep struct {
	v       int
	factors []*refFactor
}

type refEngine struct {
	pg       *PGraph
	evidence map[int]bool
	steps    []refStep
	z        float64
}

func newRefEngine(pg *PGraph, evidence map[int]bool) (*refEngine, error) {
	e := &refEngine{pg: pg, evidence: evidence}
	return e, e.eliminate()
}

// refEvidence maps literals to variables the way the old engine did; ok
// is false when they cannot all hold.
func refEvidence(pg *PGraph, lits []Literal) (ev map[int]bool, ok bool) {
	ev = make(map[int]bool, len(lits))
	for _, l := range lits {
		v, known := pg.varOf[l.Edge]
		if !known {
			if l.Present {
				continue
			}
			return nil, false
		}
		if prev, dup := ev[v]; dup && prev != l.Present {
			return nil, false
		}
		ev[v] = l.Present
	}
	return ev, true
}

func (e *refEngine) eliminate() error {
	n := len(e.pg.uncertain)
	var factors []*refFactor
	for _, t := range e.pg.JPTs {
		f := &refFactor{vars: make([]int, len(t.Edges)), tab: append([]float64(nil), t.P...)}
		for i, ed := range t.Edges {
			f.vars[i] = e.pg.varOf[ed]
		}
		factors = append(factors, f)
	}
	for v, val := range e.evidence {
		tab := []float64{1, 0}
		if val {
			tab = []float64{0, 1}
		}
		factors = append(factors, &refFactor{vars: []int{v}, tab: tab})
	}
	inFactor := make([][]int, n)
	for fi, f := range factors {
		for _, v := range f.vars {
			inFactor[v] = append(inFactor[v], fi)
		}
	}
	alive := make([]bool, len(factors))
	for i := range alive {
		alive[i] = true
	}
	eliminated := make([]bool, n)
	for count := 0; count < n; count++ {
		best, bestW := -1, 1<<30
		for v := 0; v < n; v++ {
			if eliminated[v] {
				continue
			}
			seen := map[int]bool{}
			for _, fi := range inFactor[v] {
				if alive[fi] {
					for _, u := range factors[fi].vars {
						seen[u] = true
					}
				}
			}
			if len(seen) < bestW {
				best, bestW = v, len(seen)
			}
		}
		if bestW > MaxFactorWidth {
			return fmt.Errorf("width %d", bestW)
		}
		v := best
		var gathered []*refFactor
		for _, fi := range inFactor[v] {
			if alive[fi] {
				gathered = append(gathered, factors[fi])
				alive[fi] = false
			}
		}
		e.steps = append(e.steps, refStep{v: v, factors: gathered})
		nf := refSumOut(gathered, v)
		factors = append(factors, nf)
		alive = append(alive, true)
		for _, nv := range nf.vars {
			inFactor[nv] = append(inFactor[nv], len(factors)-1)
		}
		eliminated[v] = true
	}
	z := 1.0
	for fi, f := range factors {
		if alive[fi] {
			z *= f.tab[0]
		}
	}
	e.z = z
	return nil
}

func refSumOut(gathered []*refFactor, v int) *refFactor {
	varSet := map[int]bool{}
	for _, f := range gathered {
		for _, u := range f.vars {
			if u != v {
				varSet[u] = true
			}
		}
	}
	outVars := make([]int, 0, len(varSet))
	for u := range varSet {
		outVars = append(outVars, u)
	}
	sort.Ints(outVars)
	out := &refFactor{vars: outVars, tab: make([]float64, 1<<len(outVars))}
	assign := make(map[int]bool, len(outVars)+1)
	for m := range out.tab {
		for i, u := range outVars {
			assign[u] = m&(1<<i) != 0
		}
		sum := 0.0
		for _, vv := range []bool{false, true} {
			assign[v] = vv
			prod := 1.0
			for _, f := range gathered {
				idx := 0
				for i, u := range f.vars {
					if assign[u] {
						idx |= 1 << i
					}
				}
				prod *= f.tab[idx]
			}
			sum += prod
		}
		out.tab[m] = sum
	}
	return out
}

func (e *refEngine) sampleWorldInto(rng *rand.Rand, world graph.EdgeSet, scratch []bool) {
	n := len(e.pg.uncertain)
	assign := scratch[:n]
	for i := range assign {
		assign[i] = false
	}
	for i := len(e.steps) - 1; i >= 0; i-- {
		st := e.steps[i]
		assign[st.v] = false
		w0 := 1.0
		for _, f := range st.factors {
			w0 *= f.eval(assign)
		}
		assign[st.v] = true
		w1 := 1.0
		for _, f := range st.factors {
			w1 *= f.eval(assign)
		}
		total := w0 + w1
		if total <= 0 {
			assign[st.v] = false
			continue
		}
		assign[st.v] = rng.Float64()*total < w1
	}
	world.CopyFrom(e.pg.NewWorld())
	for v := 0; v < n; v++ {
		if assign[v] {
			world.Add(e.pg.uncertain[v])
		}
	}
}

// refModel is randomPGraph plus up to three extra tables over random edge
// pairs and triples, so that many elimination steps gather three or more
// factors (whose product order then shows in the low bits). With zeros
// set, about a fifth of the table entries are forced to zero (keeping
// every table's total positive), so sampling meets steps whose two
// weights are both zero.
func refModel(rng *rand.Rand, zeros bool) *PGraph {
	pg := randomPGraph(rng, 4+rng.Intn(5), 3+rng.Intn(8))
	jpts := pg.JPTs
	for extra := rng.Intn(4); extra > 0 && pg.G.NumEdges() >= 3; extra-- {
		perm := rng.Perm(pg.G.NumEdges())
		k := 2 + rng.Intn(2)
		edges := make([]graph.EdgeID, k)
		for i := range edges {
			edges[i] = graph.EdgeID(perm[i])
		}
		tab := make([]float64, 1<<k)
		for i := range tab {
			tab[i] = 0.05 + rng.Float64()
		}
		jpts = append(jpts, JPT{Edges: edges, P: tab})
	}
	pg = MustNew(pg.G, jpts)
	if zeros {
		for _, t := range pg.JPTs {
			for i := range t.P {
				if rng.Intn(5) == 0 {
					t.P[i] = 0
				}
			}
			t.P[rng.Intn(len(t.P))] = 0.5
		}
	}
	return pg
}

// refLits draws literals over every edge: about a third of the uncertain
// edges asserted either way, and some certain edges asserted present.
func refLits(rng *rand.Rand, pg *PGraph) []Literal {
	var lits []Literal
	for e := 0; e < pg.G.NumEdges(); e++ {
		ed := graph.EdgeID(e)
		switch {
		case !pg.IsUncertain(ed):
			if rng.Intn(2) == 0 {
				lits = append(lits, Literal{Edge: ed, Present: true})
			}
		case rng.Intn(3) == 0:
			lits = append(lits, Literal{Edge: ed, Present: rng.Intn(2) == 0})
		}
	}
	return lits
}

func planOrder(p *plan) []int {
	order := make([]int, len(p.steps))
	for s, st := range p.steps {
		order[s] = int(p.scope[st.lo])
	}
	return order
}

func refOrder(e *refEngine) []int {
	order := make([]int, len(e.steps))
	for s, st := range e.steps {
		order[s] = st.v
	}
	return order
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPlanBitwiseMatchesReference checks, over 240 seeded random models
// (shared-edge JPTs in about a third of the groups, zero table entries in
// half the models), that the compiled plan reproduces the reference
// engine: the same elimination order with and without evidence, the same
// Z bits for the engine, for conditioned samplers and for ProbLits, and
// the same world sequence from the same seed.
func TestPlanBitwiseMatchesReference(t *testing.T) {
	const models, draws = 240, 40
	shared := 0
	for seed := int64(0); seed < models; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pg := refModel(rng, seed%2 == 1)
		if sharesEdges(pg) {
			shared++
		}
		eng, err := NewEngine(pg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := newRefEngine(pg, nil)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		order := planOrder(eng.plan)
		if got := refOrder(ref); fmt.Sprint(got) != fmt.Sprint(order) {
			t.Fatalf("seed %d: order %v, reference %v", seed, order, got)
		}
		if !sameBits(eng.Z(), ref.z) {
			t.Fatalf("seed %d: Z %v, reference %v", seed, eng.Z(), ref.z)
		}
		check := func(what string, s *Sampler, r *refEngine) {
			t.Helper()
			ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			wa, wb := pg.NewWorld(), pg.NewWorld()
			sa, sb := make([]bool, pg.NumUncertain()), make([]bool, pg.NumUncertain())
			for d := 0; d < draws; d++ {
				s.SampleWorldInto(ra, wa, sa)
				r.sampleWorldInto(rb, wb, sb)
				if !wa.Equal(wb) {
					t.Fatalf("seed %d %s draw %d: world %v, reference %v", seed, what, d, wa.Slice(), wb.Slice())
				}
			}
			if ra.Int63() != rb.Int63() {
				t.Fatalf("seed %d %s: rng streams diverged", seed, what)
			}
		}
		smp, err := eng.NewSampler(nil)
		if err != nil {
			t.Fatal(err)
		}
		check("unconditioned", smp, ref)

		for trial := 0; trial < 3; trial++ {
			lits := refLits(rng, pg)
			ev, ok := refEvidence(pg, lits)
			if !ok {
				t.Fatalf("seed %d: generated unsatisfiable literals", seed)
			}
			rc, err := newRefEngine(pg, ev)
			if err != nil {
				t.Fatal(err)
			}
			if got := refOrder(rc); fmt.Sprint(got) != fmt.Sprint(order) {
				t.Fatalf("seed %d: evidence %v moved the order to %v from %v", seed, lits, got, order)
			}
			cs, err := eng.NewSampler(lits)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(cs.Z(), rc.z) {
				t.Fatalf("seed %d: conditioned Z %v, reference %v", seed, cs.Z(), rc.z)
			}
			if ref.z != 0 {
				p, err := eng.ProbLits(lits)
				if err != nil {
					t.Fatal(err)
				}
				if want := rc.z / ref.z; !sameBits(p, want) {
					t.Fatalf("seed %d: ProbLits %v, reference %v", seed, p, want)
				}
			}
			check(fmt.Sprintf("evidence %v", lits), cs, rc)
		}
	}
	if shared < models/4 {
		t.Fatalf("only %d of %d models had JPTs sharing an edge", shared, models)
	}
}

func sharesEdges(pg *PGraph) bool {
	seen := map[graph.EdgeID]bool{}
	for _, t := range pg.JPTs {
		for _, e := range t.Edges {
			if seen[e] {
				return true
			}
			seen[e] = true
		}
	}
	return false
}

// TestSampleAssignAllocs pins the per-world sampling loop at zero
// allocations per draw, with and without world materialization.
func TestSampleAssignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in the plain test pass")
	}
	rng := rand.New(rand.NewSource(3))
	pg := randomPGraph(rng, 8, 10)
	eng, err := NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSampler([]Literal{{Edge: pg.UncertainEdges()[0], Present: true}})
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]bool, s.NumUncertain())
	world := pg.NewWorld()
	if n := testing.AllocsPerRun(200, func() { s.SampleAssign(rng, assign) }); n != 0 {
		t.Fatalf("SampleAssign: %v allocs per draw, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.SampleWorldInto(rng, world, assign) }); n != 0 {
		t.Fatalf("SampleWorldInto: %v allocs per draw, want 0", n)
	}
}
