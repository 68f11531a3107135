package prob

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"probgraph/internal/graph"
)

// MaxFactorWidth bounds the arity of intermediate factors during variable
// elimination. Neighbor-edge JPTs keep the effective treewidth small; if a
// pathological model exceeds this, engine construction fails rather than
// exhausting memory.
const MaxFactorWidth = 22

// plan is the compiled variable elimination of one PGraph: the min-degree
// order, each step's variable scope, and where each gathered factor's bits
// sit in that scope. It depends only on the model's structure, never on
// evidence: evidence enters as unit factors, which mention a single
// variable and so never change a width, a scope or a tie-break. One plan
// therefore serves every probability query and every sampler, with or
// without evidence, and each of them is a numeric replay of it.
type plan struct {
	steps []step
	// scope holds every step's scope; facSrc every step's gathered
	// factors, in gathering order. A source ≥ 0 is a JPT index, a negative
	// source ^t the message step t left. pos[posOff[f]:posOff[f+1]] gives,
	// for bit i of gathered factor f's own table, its bit in the step's
	// scope.
	scope  []int32
	facSrc []int32
	posOff []int32
	pos    []uint8
	// tableLen and msgLen size the arenas holding every step's sampling
	// table and message; maxJoint is the widest joint table.
	tableLen, msgLen, maxJoint int
	template                   graph.EdgeSet // certain edges only
}

// step is one elimination step. scope[lo] is the variable it eliminates;
// scope[lo+1:hi], ascending, is the scope of the message it leaves. Its
// joint table over the scope puts the eliminated variable at bit 0 and
// scope position i at bit i, so message entry m sums joint entries 2m and
// 2m+1. A sampler keeps, for each message entry m, the pair (message[m],
// joint[2m+1]) at table+2m: the draw's total weight and the weight of
// "present".
type step struct {
	lo, hi       int32
	facLo, facHi int32 // gathered factors: facSrc[facLo:facHi]
	table, msg   int   // offsets into the sampling-table and message arenas
}

// compile computes the min-degree elimination plan of pg. The order and
// tie-breaks are those of textbook recorded elimination: at each step the
// uneliminated variable whose live factors span the fewest distinct
// variables goes next, the lowest index winning ties; the gathered factors
// are the live ones mentioning it, in creation order (JPTs first, then
// messages as steps leave them).
func compile(pg *PGraph) (*plan, error) {
	n := len(pg.uncertain)
	nj := len(pg.JPTs)
	vars := make([][]int32, nj, nj+n) // factor id -> variables, in its bit order
	for j, t := range pg.JPTs {
		vs := make([]int32, len(t.Edges))
		for i, ed := range t.Edges {
			vs[i] = int32(pg.varOf[ed])
		}
		vars[j] = vs
	}
	alive := make([]bool, nj, nj+n)
	for j := range alive {
		alive[j] = true
	}
	inFactor := make([][]int32, n) // var -> factor ids mentioning it, ascending
	for f, vs := range vars {
		for _, v := range vs {
			inFactor[v] = append(inFactor[v], int32(f))
		}
	}
	seen := make([]int32, n) // stamp per variable: seen[u] == stamp ⇔ counted
	slot := make([]int32, n) // variable -> bit in the current step's scope
	stamp := int32(0)
	width := func(v int) int {
		stamp++
		w := 0
		for _, f := range inFactor[v] {
			if !alive[f] {
				continue
			}
			for _, u := range vars[f] {
				if seen[u] != stamp {
					seen[u] = stamp
					w++
				}
			}
		}
		return w
	}

	p := &plan{steps: make([]step, 0, n), posOff: make([]int32, 1, nj+2*n), template: pg.NewWorld()}
	eliminated := make([]bool, n)
	for count := 0; count < n; count++ {
		best, bestW := -1, 1<<30
		for v := 0; v < n; v++ {
			if eliminated[v] {
				continue
			}
			if w := width(v); w < bestW {
				best, bestW = v, w
			}
		}
		if bestW > MaxFactorWidth {
			return nil, fmt.Errorf("prob: elimination width %d exceeds limit %d (model too densely coupled)", bestW, MaxFactorWidth)
		}
		v := int32(best)
		st := step{lo: int32(len(p.scope)), facLo: int32(len(p.facSrc)), table: p.tableLen, msg: p.msgLen}
		// Scope: v, then the other variables of its live factors ascending.
		p.scope = append(p.scope, v)
		stamp++
		seen[v] = stamp
		for _, f := range inFactor[v] {
			if !alive[f] {
				continue
			}
			for _, u := range vars[f] {
				if seen[u] != stamp {
					seen[u] = stamp
					p.scope = append(p.scope, u)
				}
			}
		}
		st.hi = int32(len(p.scope))
		slices.Sort(p.scope[st.lo+1 : st.hi])
		for i, u := range p.scope[st.lo:st.hi] {
			slot[u] = int32(i)
		}
		for _, f := range inFactor[v] {
			if !alive[f] {
				continue
			}
			alive[f] = false
			src := f
			if int(f) >= nj {
				src = ^(f - int32(nj))
			}
			p.facSrc = append(p.facSrc, src)
			for _, u := range vars[f] {
				p.pos = append(p.pos, uint8(slot[u]))
			}
			p.posOff = append(p.posOff, int32(len(p.pos)))
		}
		st.facHi = int32(len(p.facSrc))
		k := int(st.hi - st.lo)
		p.tableLen += 1 << k
		p.msgLen += 1 << (k - 1)
		p.maxJoint = max(p.maxJoint, 1<<k)
		p.steps = append(p.steps, st)
		// The step's message is a new live factor over the rest of the scope.
		id := int32(len(vars))
		vars = append(vars, p.scope[st.lo+1:st.hi:st.hi])
		alive = append(alive, true)
		for _, u := range vars[id] {
			inFactor[u] = append(inFactor[u], id)
		}
		eliminated[v] = true
	}
	return p, nil
}

// replay runs the plan numerically under evidence ev (nil: none; else
// ev[v] is -1 for free, 0 for absent, 1 for present) and returns Z.
// tables, when non-nil, receives every step's sampling table (len
// p.tableLen), each joint table being built in place; messages and
// otherwise the joint tables live in a pooled arena.
//
// Each joint entry is 1.0 times the gathered factors' entries in gathering
// order and each message entry is the sum of its two joint entries, the
// same floating-point operations, in the same order, as multiplying out
// factor by factor, so Z and the sampling weights are bitwise those of
// recorded elimination. Evidence on v is a unit factor of v's step; its
// weights are 0 and 1, so multiplying by it last instead of at its
// gathering position changes no bits.
func (p *plan) replay(pg *PGraph, ev []int8, tables []float64) float64 {
	buf := arenaPool.Get().(*[]float64)
	defer arenaPool.Put(buf)
	if need := p.msgLen + p.maxJoint; cap(*buf) < need {
		*buf = make([]float64, need)
	}
	msgs, scratch := (*buf)[:p.msgLen], (*buf)[p.msgLen:]
	z := 1.0
	for _, st := range p.steps {
		size := 1 << (st.hi - st.lo)
		var joint []float64
		if tables != nil {
			joint = tables[st.table : st.table+size]
		} else {
			joint = scratch[:size]
		}
		for i := range joint {
			joint[i] = 1
		}
		for f := st.facLo; f < st.facHi; f++ {
			var tab []float64
			if src := p.facSrc[f]; src >= 0 {
				tab = pg.JPTs[src].P
			} else {
				t := p.steps[^src]
				tab = msgs[t.msg : t.msg+1<<(t.hi-t.lo-1)]
			}
			mulFactor(joint, tab, p.pos[p.posOff[f]:p.posOff[f+1]])
		}
		if ev != nil {
			if val := ev[p.scope[st.lo]]; val >= 0 {
				for i := 1 - int(val); i < len(joint); i += 2 {
					joint[i] *= 0
				}
			}
		}
		msg := msgs[st.msg : st.msg+size>>1]
		for m := range msg {
			msg[m] = joint[2*m] + joint[2*m+1]
		}
		if tables != nil {
			for m, w := range msg {
				joint[2*m] = w
			}
		}
		if size == 2 {
			z *= msg[0] // a constant message: a factor of Z
		}
	}
	return z
}

// mulFactor multiplies every joint entry by the factor entry its scope
// bits select; pos[i] is the scope bit of the factor's bit i.
func mulFactor(joint, tab []float64, pos []uint8) {
	for m := range joint {
		idx := 0
		for i, b := range pos {
			idx |= (m >> b & 1) << i
		}
		joint[m] *= tab[idx]
	}
}

// arenaPool recycles replay arenas: messages, then one joint table.
var arenaPool = sync.Pool{New: func() any { return new([]float64) }}

// Engine performs exact inference over a PGraph. It holds the graph's
// compiled elimination plan, shared by every sampler built from it, and
// the partition function; a probability query replays the plan under the
// query's literals as evidence. Sampling needs per-step tables, which live
// in a Sampler. An Engine is immutable, so concurrent use is safe.
type Engine struct {
	pg   *PGraph
	plan *plan
	z    float64
}

// NewEngine compiles pg's elimination plan and computes its partition
// function.
func NewEngine(pg *PGraph) (*Engine, error) {
	p, err := compile(pg)
	if err != nil {
		return nil, err
	}
	e := &Engine{pg: pg, plan: p}
	if e.z, err = checkZ(p.replay(pg, nil, nil)); err != nil {
		return nil, err
	}
	return e, nil
}

func checkZ(z float64) (float64, error) {
	if z < 0 {
		return 0, fmt.Errorf("prob: negative partition function")
	}
	return z, nil
}

// evidence maps literals to per-variable evidence (-1 free, 0 absent, 1
// present). It fails when the literals cannot all hold: a certain edge
// asserted absent, or one edge asserted both ways.
func (e *Engine) evidence(lits []Literal) ([]int8, error) {
	ev := make([]int8, len(e.pg.uncertain))
	for i := range ev {
		ev[i] = -1
	}
	for _, l := range lits {
		v, known := e.pg.varOf[l.Edge]
		if !known {
			if l.Present {
				continue // certain edge asserted present: vacuous
			}
			return nil, fmt.Errorf("prob: evidence asserts certain edge %d absent", l.Edge)
		}
		val := int8(0)
		if l.Present {
			val = 1
		}
		if ev[v] >= 0 && ev[v] != val {
			return nil, fmt.Errorf("prob: contradictory evidence on edge %d", l.Edge)
		}
		ev[v] = val
	}
	return ev, nil
}

// Z returns the (unnormalized) total weight of the model's distribution.
// Over normalized edge-disjoint JPTs this is 1.
func (e *Engine) Z() float64 { return e.z }

// NumEdges returns the total edge count of the underlying graph.
func (e *Engine) NumEdges() int { return e.pg.G.NumEdges() }

// NumUncertain returns the number of uncertain edge variables.
func (e *Engine) NumUncertain() int { return len(e.pg.uncertain) }

// PGraph returns the engine's underlying probabilistic graph.
func (e *Engine) PGraph() *PGraph { return e.pg }

// ProbLits returns the probability that all literals hold.
func (e *Engine) ProbLits(lits []Literal) (float64, error) {
	if e.z == 0 {
		return 0, fmt.Errorf("prob: model has zero total weight")
	}
	ev, err := e.evidence(lits)
	if err != nil {
		return 0, nil // the literals cannot all hold
	}
	z, err := checkZ(e.plan.replay(e.pg, ev, nil))
	if err != nil {
		return 0, err
	}
	return z / e.z, nil
}

// ProbAllPresent returns Pr(every edge in es exists). This is the
// probability of one embedding's existence (the paper's Pr(Bf)).
func (e *Engine) ProbAllPresent(es graph.EdgeSet) (float64, error) {
	return e.ProbLits(AllPresent(es))
}

// ProbAllAbsent returns Pr(every edge in es is missing), the
// probability of one embedding cut's presence (the paper's Pr(Bc)).
func (e *Engine) ProbAllAbsent(es graph.EdgeSet) (float64, error) {
	return e.ProbLits(AllAbsent(es))
}

// MarginalPresent returns Pr(edge exists). Certain edges have
// probability 1.
func (e *Engine) MarginalPresent(ed graph.EdgeID) (float64, error) {
	if _, ok := e.pg.varOf[ed]; !ok {
		return 1, nil
	}
	return e.ProbLits([]Literal{{Edge: ed, Present: true}})
}

// Sampler draws possible worlds exactly from an engine's distribution by
// backward sampling over the plan. It owns each elimination step's
// sampling table, so one draw is an index build and a table lookup per
// variable. A Sampler is immutable after construction: concurrent draws
// are safe provided each goroutine supplies its own rng and scratch
// buffers.
type Sampler struct {
	pg     *PGraph
	plan   *plan
	tables []float64 // every step's sampling table (see step)
	z      float64
}

// NewSampler builds a sampler for the model's distribution conditioned on
// the given literals (none for the model itself), in one replay of the
// plan. Its Z is the evidence probability mass times the engine's Z. It
// fails when the literals cannot all hold.
func (e *Engine) NewSampler(lits []Literal) (*Sampler, error) {
	ev, err := e.evidence(lits)
	if err != nil {
		return nil, err
	}
	p := e.plan
	s := &Sampler{pg: e.pg, plan: p, tables: make([]float64, p.tableLen)}
	if s.z, err = checkZ(p.replay(e.pg, ev, s.tables)); err != nil {
		return nil, err
	}
	return s, nil
}

// Z returns the total weight of the sampler's distribution: the evidence
// probability mass times the engine's Z.
func (s *Sampler) Z() float64 { return s.z }

// NumUncertain returns the length of the assignment SampleAssign fills.
func (s *Sampler) NumUncertain() int { return len(s.plan.steps) }

// SampleAssign draws one assignment of the uncertain variables (indexed as
// PGraph.UncertainEdges) into assign, which must have NumUncertain()
// entries: steps are replayed in reverse, each drawing its variable from
// the table pair its already-drawn scope selects.
//
//pgvet:noalloc
func (s *Sampler) SampleAssign(rng *rand.Rand, assign []bool) {
	scope, tables := s.plan.scope, s.tables
	steps := s.plan.steps
	for i := len(steps) - 1; i >= 0; i-- {
		st := &steps[i]
		idx := st.table
		for b, u := range scope[st.lo+1 : st.hi] {
			idx += b2i(assign[u]) << (b + 1)
		}
		total, w1 := tables[idx], tables[idx+1]
		v := scope[st.lo]
		if total <= 0 {
			assign[v] = false
			continue
		}
		assign[v] = rng.Float64()*total < w1
	}
}

// b2i is 1 for true; the index build uses it instead of a branch, which
// mispredicts on random draws.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SampleWorldInto draws one world into a caller-provided world (capacity
// for all edges of G): SampleAssign into scratch (NumUncertain() entries),
// then certain edges plus the drawn uncertain ones.
func (s *Sampler) SampleWorldInto(rng *rand.Rand, world graph.EdgeSet, scratch []bool) {
	assign := scratch[:len(s.plan.steps)]
	s.SampleAssign(rng, assign)
	world.CopyFrom(s.plan.template)
	for v, present := range assign {
		if present {
			world.Add(s.pg.uncertain[v])
		}
	}
}

// SampleWorld is SampleWorldInto into a fresh world and scratch.
func (s *Sampler) SampleWorld(rng *rand.Rand) graph.EdgeSet {
	world := s.pg.NewWorld()
	s.SampleWorldInto(rng, world, make([]bool, len(s.plan.steps)))
	return world
}

// WorldProb returns the normalized probability of one fully specified
// world. Worlds missing a certain edge have probability zero.
func (e *Engine) WorldProb(world graph.EdgeSet) float64 {
	if e.z == 0 {
		return 0
	}
	for ed := 0; ed < e.pg.G.NumEdges(); ed++ {
		if !e.pg.IsUncertain(graph.EdgeID(ed)) && !world.Contains(graph.EdgeID(ed)) {
			return 0
		}
	}
	prod := 1.0
	for _, t := range e.pg.JPTs {
		idx := 0
		for i, ed := range t.Edges {
			if world.Contains(ed) {
				idx |= 1 << i
			}
		}
		prod *= t.P[idx]
	}
	return prod / e.z
}
