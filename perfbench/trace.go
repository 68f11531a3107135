package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/relax"
	"probgraph/internal/server"
	"probgraph/internal/verify"
)

// span is one timed call the harness made into a layer. Spans of one
// request share Req; Parent is the span that caused this one (0: none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // work items the call handled
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) newRequest() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.reqs++
	return tr.reqs
}

func (tr *tracer) begin(req, parent int, name string) int {
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(tr.spans)
}

func (tr *tracer) end(id int) { tr.endCount(id, 0) }

func (tr *tracer) endCount(id, n int) {
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id-1].End = now
	tr.spans[id-1].Count = n
}

// wrap records one span around each request a workload loop issues.
func (tr *tracer) wrap(run exec) exec {
	return func(ctx context.Context, e *entry) outcome {
		sp := tr.begin(tr.newRequest(), 0, "workload."+e.op)
		o := run(ctx, e)
		tr.end(sp)
		return o
	}
}

// write saves every span as one JSON object per line.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums each span name's self time: its duration minus the part
// of it its child spans cover.
func (tr *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range tr.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.dur() - time.Duration(covered)
	}
	return out
}

// decomposer replays requests one at a time through every layer, timing
// each public call from the harness: the in-process engine and its
// stages, one pgserve, and the shards and coordinator of a fleet.
type decomposer struct {
	tr     *tracer
	s      *sut
	c      *corpus
	hc     *http.Client
	single string // pgserve over s.db
	fleet  *fleet // shards cut from the original database
	below  int    // churn: reference answers cover ids below this

	sums      map[string]float64
	requests  int // query-bearing requests decomposed
	queries   int // query graphs evaluated (a batch counts its members)
	verified  int
	mutations int
	failed    int
	firstErr  error
	lastAdded int
}

func (d *decomposer) fail(err error) {
	d.failed++
	if d.firstErr == nil {
		d.firstErr = err
	}
}

// timed runs fn inside a span named name and returns its duration.
func (d *decomposer) timed(req, parent int, name string, fn func() int) float64 {
	sp := d.tr.begin(req, parent, name)
	start := time.Now()
	n := fn()
	took := time.Since(start)
	d.tr.endCount(sp, n)
	return ms(took)
}

// request decomposes one request.
func (d *decomposer) request(ctx context.Context, e *entry) {
	req := d.tr.newRequest()
	root := d.tr.begin(req, 0, "request."+e.op)
	defer d.tr.end(root)
	v := d.s.db.View()
	switch e.op {
	case opAdd:
		d.mutations++
		d.sums["core.mutate_ms"] += d.timed(req, root, "core.mutate", func() int {
			gi, _, err := d.s.db.AddGraph(d.c.inserts[e.insert])
			if err != nil {
				d.fail(err)
			}
			d.lastAdded = gi
			return 1
		})
		return
	case opRemove:
		d.mutations++
		d.sums["core.mutate_ms"] += d.timed(req, root, "core.mutate", func() int {
			if _, err := d.s.db.RemoveGraph(d.lastAdded); err != nil {
				d.fail(err)
			}
			return 1
		})
		return
	}
	d.requests++
	d.sums["core.query_ms"] += d.timed(req, root, "core."+e.op, func() int {
		if err := d.inProcess(ctx, v, e, e.opt, true); err != nil {
			d.fail(err)
		}
		return len(e.qs)
	})
	serial := e.opt
	serial.Concurrency = 1
	d.sums["core.serial_ms"] += d.timed(req, root, "core.serial", func() int {
		if err := d.inProcess(ctx, v, e, serial, false); err != nil {
			d.fail(err)
		}
		return len(e.qs)
	})
	for i, q := range e.qs {
		opt := serial
		if e.op == opBatch {
			opt.Seed = core.BatchSeed(e.opt.Seed, i)
		}
		if err := d.layers(ctx, req, root, v, q, opt); err != nil {
			d.fail(err)
		}
	}

	body := e.uncachedBody()
	rt, inServer := d.roundTrip(ctx, req, root, "server.roundtrip", d.single+e.path(), body)
	d.sums["server.roundtrip_ms"] += rt
	// What the server adds around its own evaluation of this same request.
	// core.query_ms comes from a separate evaluation, whose run-to-run noise
	// is larger than the serving overhead.
	d.sums["server.http_ms"] += rt - inServer
	var slowest, fastest float64
	for i, sh := range d.fleet.shards {
		t, _ := d.roundTrip(ctx, req, root, "cluster.shard", sh.url+e.path(), body)
		if i == 0 || t > slowest {
			slowest = t
		}
		if i == 0 || t < fastest {
			fastest = t
		}
	}
	proxy, _ := d.roundTrip(ctx, req, root, "cluster.proxy", d.fleet.proxy.url+e.path(), body)
	d.sums["cluster.proxy_ms"] += proxy
	d.sums["cluster.fanout_ms"] += proxy - slowest
	d.sums["cluster.shard_skew_ms"] += slowest - fastest
}

// inProcess evaluates e on v and compares the answer with the reference;
// tally adds its verification counts to the verify.yield sums.
func (d *decomposer) inProcess(ctx context.Context, v *core.View, e *entry, opt core.QueryOptions, tally bool) error {
	var err error
	// Verified answers ÷ verified candidates, from the engine's own counts.
	tallyVerified := func(r *core.Result) {
		if tally {
			d.sums["verify.verified"] += float64(r.Stats.VerifyCandidates)
			d.sums["verify.answers"] += float64(r.Stats.Answers - r.Stats.AcceptedByLower)
		}
	}
	switch e.op {
	case opQuery:
		var res *core.Result
		if res, err = v.QueryCtx(ctx, e.qs[0], opt); err == nil {
			tallyVerified(res)
			if !sameResult(e.ref, res.Answers, res.SSP, d.below) {
				err = errMismatch
			}
		}
	case opTopK:
		var items []core.TopKItem
		if items, err = v.QueryTopKCtx(ctx, e.qs[0], e.k, opt); err == nil && !slices.Equal(items, e.refTopK) {
			err = errMismatch
		}
	case opBatch:
		var rs []*core.Result
		if rs, err = v.QueryBatchCtx(ctx, e.qs, opt); err == nil {
			for i, r := range rs {
				tallyVerified(r)
				if !sameResult(e.refBatch[i], r.Answers, r.SSP, d.below) {
					err = errMismatch
				}
			}
		}
	}
	if err != nil {
		return fmt.Errorf("in-process %s: %w", e.op, err)
	}
	return nil
}

// roundTrip times one POST and returns its duration and the time_ms the
// server reported for it: from after parsing the request to before encoding
// the response.
func (d *decomposer) roundTrip(ctx context.Context, req, parent int, name, url string, body []byte) (took, inServer float64) {
	took = d.timed(req, parent, name, func() int {
		out, _, err := call(ctx, d.hc, http.MethodPost, url, body)
		if err == nil {
			var r struct {
				TimeMS float64 `json:"time_ms"`
			}
			err = json.Unmarshal(out, &r)
			inServer = r.TimeMS
		}
		if err != nil {
			d.fail(fmt.Errorf("%s: %w", name, err))
		}
		return 1
	})
	return took, inServer
}

// layers evaluates one query graph stage by stage, serially, through each
// layer's public entry points, and checks the stage counts against the
// engine's own.
func (d *decomposer) layers(ctx context.Context, req, parent int, v *core.View, q *graph.Graph, opt core.QueryOptions) error {
	d.queries++
	var cand []int
	var err error
	d.sums["simsearch.scan_ms"] += d.timed(req, parent, "simsearch.scan", func() int {
		cand, err = v.Struct.CandidatesCtx(ctx, q, opt.Delta, 1)
		return len(cand)
	})
	if err != nil {
		return err
	}
	confirmed := 0
	d.sums["simsearch.confirm_ms"] += d.timed(req, parent, "simsearch.confirm", func() int {
		for _, gi := range cand {
			if v.Struct.Confirm(q, gi, opt.Delta) {
				confirmed++
			}
		}
		return len(cand)
	})
	var u []*graph.Graph
	d.sums["relax.ms"] += d.timed(req, parent, "relax", func() int {
		u = relax.Relaxed(q, opt.Delta, opt.MaxRelaxed)
		return len(u)
	})

	// The pruner's cost: the pipeline without verification, with and
	// without probabilistic pruning.
	none := opt
	none.Verifier = core.VerifierNone
	var pruned *core.Result
	with := d.timed(req, parent, "pmi.with_pruning", func() int {
		pruned, err = v.QueryCtx(ctx, q, none)
		return 1
	})
	if err != nil {
		return err
	}
	none.SkipProbPruning = true
	without := d.timed(req, parent, "pmi.without_pruning", func() int {
		_, err = v.QueryCtx(ctx, q, none)
		return 1
	})
	if err != nil {
		return err
	}
	d.sums["pmi.prune_ms"] += with - without
	st := pruned.Stats
	if st.StructFilterCandidates != len(cand) || st.StructConfirmed != confirmed || st.RelaxedQueries != len(u) {
		return fmt.Errorf("stage counts disagree with the engine's: scan %d/%d confirmed %d/%d relaxed %d/%d: %w",
			len(cand), st.StructFilterCandidates, confirmed, st.StructConfirmed, len(u), st.RelaxedQueries, errMismatch)
	}
	d.sums["simsearch.scan_candidates"] += float64(len(cand))
	d.sums["simsearch.confirmed"] += float64(confirmed)
	d.sums["relax.relaxed_queries"] += float64(len(u))
	d.sums["pmi.pruned_by_upper"] += float64(st.PrunedByUpper)
	d.sums["pmi.accepted_by_lower"] += float64(st.AcceptedByLower)

	// Verification of every candidate the pruner left undecided: clause
	// collection, exact clause probabilities, then the SMP sampler (whose
	// time includes its own clause inference).
	vsp := d.tr.begin(req, parent, "verify")
	defer d.tr.end(vsp)
	clauseCap := opt.MaxClausesPerRQ
	if clauseCap == 0 {
		clauseCap = 64 // QueryOptions' default
	}
	for _, gi := range pruned.Answers {
		if _, accepted := pruned.SSP[gi]; accepted {
			continue
		}
		d.verified++
		var clauses []graph.EdgeSet
		d.sums["verify.clauses_ms"] += d.timed(req, vsp, "verify.clauses", func() int {
			for _, rq := range u {
				clauses = append(clauses, iso.EdgeSets(rq, v.Certain[gi], nil, clauseCap)...)
			}
			clauses = verify.DedupClauses(clauses)
			return len(clauses)
		})
		d.sums["verify.clauses"] += float64(len(clauses))
		eng, err := v.Engine(gi)
		if err != nil {
			return err
		}
		infer := d.timed(req, vsp, "verify.infer", func() int {
			for _, c := range clauses {
				if _, err = eng.ProbAllPresent(c); err != nil {
					break
				}
			}
			return len(clauses)
		})
		if err != nil {
			return err
		}
		vo := opt.Verify
		vo.Seed = opt.Seed
		smp := d.timed(req, vsp, "verify.smp", func() int {
			_, err = verify.SMP(eng, clauses, vo)
			return 1
		})
		if err != nil {
			return err
		}
		d.sums["verify.infer_ms"] += infer
		d.sums["verify.sample_ms"] += smp - infer
	}
	return nil
}

// mutationProbe measures the mutation path on workloads whose traffic has
// no writes: it adds each of the first probes insert-pool graphs and
// removes it again, in-process.
func (d *decomposer) mutationProbe(probes int) {
	for i := 0; i < probes; i++ {
		d.request(context.Background(), &entry{op: opAdd, insert: i})
		d.request(context.Background(), &entry{op: opRemove})
	}
}

// tracedRun measures the per-layer breakdown in three phases over the
// same request sequence: the workload untraced (a quarter of the
// window), the workload with a span around every request (a quarter),
// and a serial decomposition of the requests through every layer (the
// remaining half). It returns the untraced phase's tally (whose failures
// count toward the run's), the per-layer metrics and report lines.
func tracedRun(ctx context.Context, b *bench, w workload, s *sut, window time.Duration) (*tally, map[string]float64, []string, error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	plain := s.loop(ctx, window/4, nil)
	runtime.ReadMemStats(&ms1)

	tr := newTracer()
	if s.restart != nil {
		if err := s.restart(ctx); err != nil {
			return plain, nil, nil, err
		}
	}
	traced := s.loop(ctx, window/4, tr.wrap)

	d := &decomposer{tr: tr, s: s, c: b.corpus, hc: newClient(1), below: s.below, sums: map[string]float64{}}
	defer closeClient(d.hc)
	single := s.single
	if single == nil {
		l, err := listen(server.New(s.db, server.Options{}).Handler())
		if err != nil {
			return plain, nil, nil, err
		}
		defer l.close()
		single = l
	}
	d.single = single.url
	opens := s.opens
	if s.fleet != nil {
		d.fleet = s.fleet
	} else {
		images, err := writeShardImages(s.ref, shardCount, b.dir)
		if err != nil {
			return plain, nil, nil, err
		}
		f, err := startFleet(ctx, d.hc, images)
		if err != nil {
			return plain, nil, nil, err
		}
		defer f.close()
		d.fleet = f
		opens = []time.Duration{f.open}
	}
	// The decomposition is the last phase, so it may stop anywhere, even
	// between an add and its delete.
	start := time.Now()
	for _, e := range s.reqs {
		if time.Since(start) >= window/2 {
			break
		}
		d.request(ctx, e)
	}
	if d.mutations == 0 {
		d.mutationProbe(2)
	}
	if d.failed > 0 {
		plain.failed += d.failed
		plain.attempted += d.failed
		if plain.firstErr == nil {
			plain.firstErr = fmt.Errorf("traced decomposition: %w", d.firstErr)
		}
	}

	perReq := func(name string) float64 { return d.sums[name] / float64(max(1, d.requests)) }
	perQuery := func(name string) float64 { return d.sums[name] / float64(max(1, d.queries)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"simsearch.scan_ms":            perReq("simsearch.scan_ms"),
		"simsearch.confirm_ms":         perReq("simsearch.confirm_ms"),
		"simsearch.scan_candidates":    perQuery("simsearch.scan_candidates"),
		"simsearch.confirmed":          perQuery("simsearch.confirmed"),
		"simsearch.confirm_yield":      ratio(d.sums["simsearch.confirmed"], d.sums["simsearch.scan_candidates"]),
		"relax.ms":                     perReq("relax.ms"),
		"relax.relaxed_queries":        perQuery("relax.relaxed_queries"),
		"pmi.prune_ms":                 perReq("pmi.prune_ms"),
		"pmi.pruned_by_upper":          perQuery("pmi.pruned_by_upper"),
		"pmi.accepted_by_lower":        perQuery("pmi.accepted_by_lower"),
		"pmi.decided_ratio":            ratio(d.sums["pmi.pruned_by_upper"]+d.sums["pmi.accepted_by_lower"], d.sums["simsearch.confirmed"]),
		"verify.clauses_ms":            perReq("verify.clauses_ms"),
		"verify.infer_ms":              perReq("verify.infer_ms"),
		"verify.sample_ms":             perReq("verify.sample_ms"),
		"verify.candidates":            float64(d.verified) / float64(max(1, d.queries)),
		"verify.clauses_per_candidate": ratio(d.sums["verify.clauses"], float64(d.verified)),
		"verify.yield":                 ratio(d.sums["verify.answers"], d.sums["verify.verified"]),
		"core.query_ms":                perReq("core.query_ms"),
		"core.mutate_ms":               d.sums["core.mutate_ms"] / float64(max(1, d.mutations)),
		"server.http_ms":               perReq("server.http_ms"),
		"server.cache_hit_ratio":       ratio(float64(plain.cached), float64(plain.httpOps)),
		"cluster.fanout_ms":            perReq("cluster.fanout_ms"),
		"cluster.shard_skew_ms":        perReq("cluster.shard_skew_ms"),
		"snapbin.open_ms":              median(durations(opens)),
		"runtime.alloc_bytes_per_op":   float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(1, plain.attempted)),
		"harness.generator_lag_ms":     mean(plain.lag),
	}

	lines := layerReport(w, d, m, plain, traced)
	path := filepath.Join(b.cfg.root, ".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, b.cfg.seed))
	if err := tr.write(path); err != nil {
		return plain, m, lines, fmt.Errorf("writing spans: %w", err)
	}
	lines = append(lines, fmt.Sprintf("%d spans over %d requests written to %s", len(tr.spans), tr.reqs, path))
	return plain, m, lines, nil
}

// layerReport prints the breakdown: each layer's time per request and its
// share of the serial in-process evaluation (engine layers) or of the
// round trip it is part of (serving layers), the raw span self times, and
// the tracing overhead.
func layerReport(w workload, d *decomposer, m map[string]float64, plain, traced *tally) []string {
	serial := d.sums["core.serial_ms"] / float64(max(1, d.requests))
	rt := d.sums["server.roundtrip_ms"] / float64(max(1, d.requests))
	proxy := d.sums["cluster.proxy_ms"] / float64(max(1, d.requests))
	lines := []string{
		fmt.Sprintf("traced decomposition: %d requests, %d query evaluations, %d verified candidates, %d mutations",
			d.requests, d.queries, d.verified, d.mutations),
		fmt.Sprintf("sizing when chosen: %s", w.sizing),
		fmt.Sprintf("core.query_ms %.3f as issued; %.3f serial (the base of the engine shares below)", m["core.query_ms"], serial),
	}
	share := func(name string, base float64) {
		s := "    -"
		if base > 0 {
			s = fmt.Sprintf("%5.1f%%", 100*m[name]/base)
		}
		lines = append(lines, fmt.Sprintf("  %-24s %9.3f ms/req %s", name, m[name], s))
	}
	for _, name := range []string{"simsearch.scan_ms", "simsearch.confirm_ms", "relax.ms", "pmi.prune_ms",
		"verify.clauses_ms", "verify.infer_ms", "verify.sample_ms"} {
		share(name, serial)
	}
	v := m["verify.clauses_ms"] + m["verify.infer_ms"] + m["verify.sample_ms"]
	lines = append(lines, fmt.Sprintf("  %-24s %9.3f ms/req %5.1f%%", "verify.* total", v, 100*v/max(serial, 1e-9)))
	share("server.http_ms", rt)
	share("cluster.fanout_ms", proxy)
	share("cluster.shard_skew_ms", proxy)
	lines = append(lines, "span self times (ms per decomposed request):")
	self := d.tr.selfTimes()
	for _, n := range slices.Sorted(maps.Keys(self)) {
		if strings.HasPrefix(n, "workload.") {
			continue // the traced workload phase, not the decomposition
		}
		lines = append(lines, fmt.Sprintf("  %-24s %9.3f", n, ms(self[n])/float64(max(1, d.requests+d.mutations))))
	}
	up, tp := percentile(plain.lat[opQuery], 0.5), percentile(traced.lat[opQuery], 0.5)
	lines = append(lines, fmt.Sprintf("tracing overhead: query p50 traced %.3f ms - untraced %.3f ms = %+.3f ms (%+.1f%%)",
		tp, up, tp-up, 100*(tp-up)/max(up, 1e-9)))
	return lines
}
