package verify

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// randomModel builds a small correlated PGraph and engine.
func randomModel(t testing.TB, rng *rand.Rand, nv, ne int) (*prob.PGraph, *prob.Engine) {
	b := graph.NewBuilder("m")
	for i := 0; i < nv; i++ {
		b.AddVertex("a")
	}
	for tries, added := 0, 0; added < ne && tries < 30*ne; tries++ {
		u := graph.VertexID(rng.Intn(nv))
		v := graph.VertexID(rng.Intn(nv))
		if u == v {
			continue
		}
		if _, err := b.AddEdge(u, v, ""); err == nil {
			added++
		}
	}
	g := b.Build()
	var jpts []prob.JPT
	e := 0
	for e < g.NumEdges() {
		k := 1 + rng.Intn(2)
		if e+k > g.NumEdges() {
			k = g.NumEdges() - e
		}
		edges := make([]graph.EdgeID, 0, k)
		for i := 0; i < k; i++ {
			edges = append(edges, graph.EdgeID(e+i))
		}
		tab := make([]float64, 1<<k)
		for i := range tab {
			tab[i] = 0.1 + rng.Float64()
		}
		jpts = append(jpts, prob.JPT{Edges: edges, P: tab})
		e += k
	}
	pg := prob.MustNew(g, jpts)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	return pg, eng
}

func randomClauses(rng *rand.Rand, numEdges, n int) []graph.EdgeSet {
	out := make([]graph.EdgeSet, n)
	for i := range out {
		out[i] = graph.NewEdgeSet(numEdges)
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			out[i].Add(graph.EdgeID(rng.Intn(numEdges)))
		}
	}
	return out
}

// enumerationDNF computes Pr(∨ clauses) by world enumeration.
func enumerationDNF(t testing.TB, eng *prob.Engine, clauses []graph.EdgeSet) float64 {
	total := 0.0
	if err := prob.EnumerateWorlds(eng, func(w graph.EdgeSet, p float64) bool {
		for _, c := range clauses {
			if w.ContainsAll(c) {
				total += p
				break
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return total
}

func TestExactMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pg, eng := randomModel(t, rng, 5, 6)
		clauses := randomClauses(rng, pg.G.NumEdges(), 1+rng.Intn(4))
		got, err := Exact(eng, clauses, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := enumerationDNF(t, eng, clauses)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSMPConvergesToExact(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pg, eng := randomModel(t, rng, 6, 7)
		clauses := DedupClauses(randomClauses(rng, pg.G.NumEdges(), 3))
		want := enumerationDNF(t, eng, clauses)
		got, err := SMP(eng, clauses, Options{N: 30000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("seed %d: SMP %v vs exact %v", seed, got, want)
		}
	}
}

func TestSMPEmptyAndEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pg, eng := randomModel(t, rng, 4, 3)
	// No clauses.
	p, err := SMP(eng, nil, Options{N: 100})
	if err != nil || p != 0 {
		t.Fatalf("empty clause set: p=%v err=%v", p, err)
	}
	// A clause over certain edges (none here — all edges are covered by
	// JPTs, so use an empty clause instead): an empty edge set is trivially
	// satisfied, so Pr = 1.
	empty := graph.NewEdgeSet(pg.G.NumEdges())
	p, err = SMP(eng, []graph.EdgeSet{empty}, Options{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("empty clause (always true) should give 1, got %v", p)
	}
}

func TestSMPCertainClause(t *testing.T) {
	// Graph with one certain edge: clause over it has probability 1.
	b := graph.NewBuilder("c")
	u := b.AddVertex("a")
	v := b.AddVertex("a")
	w := b.AddVertex("a")
	b.MustAddEdge(u, v, "") // edge 0: certain
	b.MustAddEdge(v, w, "") // edge 1: uncertain
	g := b.Build()
	pg := prob.MustNew(g, []prob.JPT{prob.NewIndependentJPT(1, 0.5)})
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.NewEdgeSet(2)
	c.Add(0)
	p, err := SMP(eng, []graph.EdgeSet{c}, Options{N: 50})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("certain clause should short-circuit to 1, got %v", p)
	}
}

func TestDedupClausesAbsorption(t *testing.T) {
	mk := func(ids ...graph.EdgeID) graph.EdgeSet {
		s := graph.NewEdgeSet(8)
		for _, id := range ids {
			s.Add(id)
		}
		return s
	}
	in := []graph.EdgeSet{mk(0, 1), mk(0, 1, 2), mk(0, 1), mk(3)}
	out := DedupClauses(in)
	// {0,1,2} is absorbed by {0,1}; duplicates collapse.
	if len(out) != 2 {
		t.Fatalf("got %d clauses, want 2: %v", len(out), out)
	}
	keys := map[string]bool{mk(0, 1).Key(): false, mk(3).Key(): false}
	for _, c := range out {
		if _, ok := keys[c.Key()]; !ok {
			t.Fatalf("unexpected clause %v", c.Slice())
		}
		keys[c.Key()] = true
	}
	for k, seen := range keys {
		if !seen {
			t.Fatalf("missing clause %q", k)
		}
	}
}

func TestDedupPreservesUnionSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pg, eng := randomModel(t, rng, 5, 5)
		clauses := randomClauses(rng, pg.G.NumEdges(), 4)
		before := enumerationDNF(t, eng, clauses)
		after := enumerationDNF(t, eng, DedupClauses(clauses))
		return math.Abs(before-after) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactRejectsTooManyClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pg, eng := randomModel(t, rng, 6, 6)
	clauses := make([]graph.EdgeSet, 25)
	for i := range clauses {
		clauses[i] = graph.NewEdgeSet(pg.G.NumEdges())
		clauses[i].Add(graph.EdgeID(i % pg.G.NumEdges()))
		clauses[i].Add(graph.EdgeID((i + 1 + i/6) % pg.G.NumEdges()))
	}
	clauses = append(clauses, randomClauses(rng, pg.G.NumEdges(), 10)...)
	unique := DedupClauses(clauses)
	if len(unique) <= 20 {
		t.Skip("not enough distinct clauses to trigger the cap")
	}
	if _, err := Exact(eng, unique, 20); err == nil {
		t.Fatal("expected clause-cap error")
	}
}

func TestTopClauses(t *testing.T) {
	mk := func(id graph.EdgeID) graph.EdgeSet {
		s := graph.NewEdgeSet(8)
		s.Add(id)
		return s
	}
	clauses := []graph.EdgeSet{mk(0), mk(1), mk(2), mk(3)}
	probs := []float64{0.1, 0.9, 0.5, 0.7}
	idx, v := topClauses(probs, 2)
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 3 {
		t.Fatalf("topClauses picked %v", idx)
	}
	if math.Abs(v-1.6) > 1e-12 {
		t.Fatalf("v = %v, want 1.6", v)
	}
	if c := clauses[idx[0]]; !c.Contains(1) {
		t.Fatalf("top clause %v, want {1}", c.Slice())
	}
}

func TestLowerBoundSearch(t *testing.T) {
	cum := []float64{0.1, 0.4, 0.9, 1.0}
	cases := map[float64]int{0.05: 0, 0.1: 0, 0.2: 1, 0.4: 1, 0.95: 3, 1.0: 3}
	for x, want := range cases {
		if got := lowerBound(cum, x); got != want {
			t.Fatalf("lowerBound(%v) = %d, want %d", x, got, want)
		}
	}
}

// TestSMPGuaranteeAtDefaults checks the estimator's stated (τ, ξ)
// guarantee at the sample count the engine actually uses: with the
// default Options (τ = 0.1, ξ = 0.05, N = ⌈4·ln(2/ξ)/τ²⌉ = 1476), the
// relative error against world enumeration must be at most τ on at least
// a 1−ξ fraction of 240 seeded random models and DNFs.
func TestSMPGuaranteeAtDefaults(t *testing.T) {
	const models = 240
	opt := Options{}.withDefaults()
	if opt.N != 1476 {
		t.Fatalf("default N = %d, want 1476", opt.N)
	}
	within := 0
	for seed := int64(0); seed < models; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		pg, eng := randomModel(t, rng, 6+rng.Intn(3), 7+rng.Intn(4))
		clauses := DedupClauses(randomClauses(rng, pg.G.NumEdges(), 2+rng.Intn(5)))
		want := enumerationDNF(t, eng, clauses)
		got, err := SMP(eng, clauses, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) <= opt.Tau*want {
			within++
		}
	}
	t.Logf("relative error ≤ %v on %d of %d models", opt.Tau, within, models)
	if float64(within) < (1-opt.Xi)*models {
		t.Fatalf("relative error ≤ τ on %d of %d models, want at least %v", within, models, (1-opt.Xi)*models)
	}
}

// TestSMPReportsTruncation feeds SMP a 780-clause DNF — every pair of 40
// independent edges — past the default MaxClauses of 512: the report must
// say the estimate is a truncated lower bound, and must not when the cap
// admits every clause.
func TestSMPReportsTruncation(t *testing.T) {
	b := graph.NewBuilder("t")
	for i := 0; i < 41; i++ {
		b.AddVertex("a")
	}
	probs := map[graph.EdgeID]float64{}
	for i := 0; i < 40; i++ {
		probs[b.MustAddEdge(graph.VertexID(i), graph.VertexID(i+1), "")] = 0.02
	}
	pg, err := prob.NewIndependent(b.Build(), probs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	var clauses []graph.EdgeSet
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			c := graph.NewEdgeSet(40)
			c.Add(graph.EdgeID(i))
			c.Add(graph.EdgeID(j))
			clauses = append(clauses, c)
		}
	}
	if len(clauses) <= 512 {
		t.Fatalf("only %d clauses", len(clauses))
	}
	r, err := SMPReport(eng, clauses, Options{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated || r.SSP <= 0 {
		t.Fatalf("default cap: report %+v, want a positive truncated estimate", r)
	}
	// SSP = v·cnt/N where v sums only the 512 kept clauses, so SSP ≤ v and
	// SSP·N/v is a whole count; the untruncated mass would break both.
	cps := make([]float64, len(clauses))
	for i, c := range clauses {
		if cps[i], err = eng.ProbAllPresent(c); err != nil {
			t.Fatal(err)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(cps)))
	kept := 0.0
	for _, p := range cps[:512] {
		kept += p
	}
	cnt := r.SSP * 200 / kept
	if r.SSP > kept*(1+1e-9) || math.Abs(cnt-math.Round(cnt)) > 1e-6 {
		t.Fatalf("SSP %v is not v·cnt/N for the kept clause mass %v (cnt = %v)", r.SSP, kept, cnt)
	}
	full, err := SMPReport(eng, clauses, Options{N: 200, Seed: 1, MaxClauses: len(clauses)})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatalf("cap %d admits every clause, report says truncated", len(clauses))
	}
	if p, _ := SMP(eng, clauses, Options{N: 200, Seed: 1}); p != r.SSP {
		t.Fatalf("SMP %v differs from SMPReport %v", p, r.SSP)
	}
}
