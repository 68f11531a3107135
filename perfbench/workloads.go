package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/server"
)

// workload is one named traffic pattern over the shared corpus. Why each
// was chosen is in BENCHMARK.json and README.md.
type workload struct {
	name string
	// sizing describes what the workload was sized at when it was chosen
	// (2-core x86-64 box, go1.24); the traced report prints it beside the
	// measured breakdown.
	sizing string
	setup  func(ctx context.Context, b *bench) (*sut, error)
}

var workloads = []workload{
	{
		name:   "verify_heavy",
		sizing: "verification ~85% of query CPU; 67 confirmed, 64 verified, 5 answers per query; p50 57-63 ms, p90 90-99 ms",
		setup:  inProcessSetup(4, 0.3),
	},
	{
		name:   "filter_heavy",
		sizing: "6-edge queries: 55 scan candidates -> 13.7 confirmed -> 11.3 pruned -> 2.4 verified; scan 0.22 ms, confirm 8.7 ms; p50 8.7-9.5 ms, p90 17.5-18.2 ms",
		setup:  inProcessSetup(filterEdges, 0.9),
	},
	{
		name:   "serve_fleet",
		sizing: "3-edge queries: in-process p50 0.67 ms, single pgserve 1.21 ms, 2-shard pgproxy 1.81 ms",
		setup:  fleetSetup,
	},
	{
		name:   "churn",
		sizing: "none recorded",
		setup:  churnSetup,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	setupRepeats      = 3  // database builds per run; setup_s is their median
	fleetSetupRepeats = 15 // fleet starts per run (each about 10 ms)
	shardCount        = 2
	topK              = 5
	batchSize         = 8
)

// concurrency is the per-request worker pool and the client count: the
// machine's CPUs, at most two.
func concurrency() int { return min(2, runtime.NumCPU()) }

// sut is one workload's system under test, set up and ready.
type sut struct {
	// db is the in-process database requests evaluate against (for the
	// fleet, the single node its shards were cut from); ref is an
	// independently built copy the reference answers came from.
	db, ref *core.Database
	reqs    []*entry
	due     []time.Duration // arrival schedule; nil for a closed loop
	exec    exec

	setups []time.Duration
	// opens lists Σ core.OpenSnapshot over the shard images, per fleet
	// start.
	opens []time.Duration

	hc     *http.Client
	fleet  *fleet
	single *listener // churn's pgserve
	below  int       // churn: answers are checked on ids below this
	// cycle > 0 lets a closed loop stop only between cycles of this many
	// requests: whole passes over the pool, so every entry is issued
	// equally often and the percentiles do not depend on where a partial
	// pass ended, and (churn) every add is matched by its delete.
	cycle int
	// restart brings up a fresh system with empty caches (fleet only).
	restart func(ctx context.Context) error
}

func (s *sut) close() {
	if s.fleet != nil {
		s.fleet.close()
	}
	if s.single != nil {
		s.single.close()
	}
	if s.hc != nil {
		closeClient(s.hc)
	}
}

// loop runs the workload for window; wrap, when set, decorates every
// request (the traced run's spans).
func (s *sut) loop(ctx context.Context, window time.Duration, wrap func(exec) exec) *tally {
	run := s.exec
	if wrap != nil {
		run = wrap(run)
	}
	if s.due == nil {
		return closedLoop(ctx, window, s.reqs, s.boundary, run)
	}
	n := sort.Search(len(s.due), func(i int) bool { return s.due[i] >= window })
	return openLoop(ctx, concurrency(), s.due[:n], s.reqs[:n], run)
}

// boundary reports whether a closed loop may stop before request i.
func (s *sut) boundary(i int) bool { return s.cycle == 0 || i%s.cycle == 0 }

// buildRepeated builds the database setupRepeats times, recording each
// build; it returns the first (the reference) and the last build.
func buildRepeated(c *corpus) (ref, db *core.Database, setups []time.Duration, err error) {
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		d, took, err := c.buildDB()
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, took)
		if i == 0 {
			ref = d
		}
		db = d
	}
	return ref, db, setups, nil
}

// references answers every distinct entry on the reference database.
func references(ctx context.Context, ref *core.Database, entries []*entry) error {
	v := ref.View()
	for _, e := range entries {
		if err := e.computeReference(ctx, v); err != nil {
			return err
		}
	}
	return nil
}

// maxRequests bounds a generated closed-loop sequence: far more than any
// window can issue.
func maxRequests(b *bench) int { return int(b.cfg.seconds*2000) + 1000 }

// inProcessSetup is verify_heavy and filter_heavy: one client calling
// View.QueryCtx in a closed loop over a pool of queries with the given
// edge count, at δ=1 and the given ε.
func inProcessSetup(edges int, eps float64) func(ctx context.Context, b *bench) (*sut, error) {
	return func(ctx context.Context, b *bench) (*sut, error) {
		ref, db, setups, err := buildRepeated(b.corpus)
		if err != nil {
			return nil, err
		}
		s, err := newInProcess(ctx, b, ref, db, edges, eps)
		if err != nil {
			return nil, err
		}
		s.setups = setups
		return s, nil
	}
}

// newInProcess builds an in-process workload over already built
// databases: reference answers come from ref, measured requests run on
// db.
func newInProcess(ctx context.Context, b *bench, ref, db *core.Database, edges int, eps float64) (*sut, error) {
	pool := b.corpus.queries[edges]
	entries := make([]*entry, len(pool))
	for i := range pool {
		opt := core.QueryOptions{
			Epsilon: eps, Delta: 1, OptBounds: true,
			Seed: requestSeed(b.cfg.seed, i), Concurrency: concurrency(),
		}
		opt.Verify.N = b.cfg.smpN
		entries[i] = &entry{op: opQuery, qs: pool[i : i+1], opt: opt}
	}
	if err := references(ctx, ref, entries); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	var reqs []*entry
	for _, i := range permutedOrder(rng, len(entries), maxRequests(b)/len(entries)+1) {
		reqs = append(reqs, entries[i])
	}
	return &sut{
		db: db, ref: ref, reqs: reqs, cycle: len(entries),
		exec: func(ctx context.Context, e *entry) outcome {
			start := time.Now()
			res, err := db.View().QueryCtx(ctx, e.qs[0], e.opt)
			o := outcome{lat: time.Since(start), err: err}
			if err == nil {
				o.err = e.checkInProcess(res)
			}
			return o
		},
	}, nil
}

// Fleet traffic: 70% /query, 20% /topk, 10% /batch, Poisson arrivals at
// fleetRate requests per second: about an eighth of what the fleet
// sustains on a 2-core box (at 400 req/s the generator already runs 9 ms
// late). At 100 req/s and above, a slow period of the shared host, or one
// CPU lost to another process, raised query p75 by half: concurrent top-k
// requests then hold the CPUs queries need. At 50 req/s it moved 5%.
const (
	fleetRate   = 50.0
	fleetTopK   = 0.2
	fleetBatch  = 0.1
	zipfS       = 1.1
	topkEntries = 80
	batchPool   = 30
)

// fleetSetup builds the database once, cuts it into shard images, then
// starts the fleet several times from those images; setup_s is the median
// start (open the images, serve the shards and the coordinator, answer
// /readyz).
func fleetSetup(ctx context.Context, b *bench) (*sut, error) {
	db, _, err := b.corpus.buildDB()
	if err != nil {
		return nil, err
	}
	s := &sut{db: db, ref: db, hc: newClient(concurrency() * 2)}
	images, err := writeShardImages(db, shardCount, b.dir)
	if err != nil {
		return nil, err
	}
	start := func(ctx context.Context) error {
		if s.fleet != nil {
			s.fleet.close()
			s.fleet = nil
		}
		runtime.GC()
		t := time.Now()
		f, err := startFleet(ctx, s.hc, images)
		if err != nil {
			return err
		}
		s.setups = append(s.setups, time.Since(t))
		s.opens = append(s.opens, f.open)
		s.fleet = f
		s.exec = httpExec(s.hc, f.proxy.url, 0)
		return nil
	}
	for i := 0; i < fleetSetupRepeats; i++ {
		if err := start(ctx); err != nil {
			s.close()
			return nil, err
		}
	}
	s.restart = start

	// Distinct requests: every pool query once, topkEntries top-k
	// requests, and batchPool fixed batches. The pools exceed the shards'
	// result caches (256 entries), so popularity-skewed draws both hit and
	// miss.
	pool := b.corpus.queries[fleetEdges]
	// Each request runs on one worker: these queries are too cheap to gain
	// from a per-request pool, and with one worker a top-k request leaves
	// the other CPU to concurrent queries instead of taking both.
	opt := func(i int) core.QueryOptions {
		return core.QueryOptions{Epsilon: 0.9, Delta: 0, OptBounds: true,
			Seed: requestSeed(b.cfg.seed, i), Concurrency: 1}
	}
	var queries, topks, batches []*entry
	for i := range pool {
		queries = append(queries, &entry{op: opQuery, qs: pool[i : i+1], opt: opt(i)})
	}
	for i := 0; i < topkEntries; i++ {
		topks = append(topks, &entry{op: opTopK, qs: pool[i : i+1], opt: opt(len(pool) + i), k: topK})
	}
	members := rand.New(rand.NewSource(dataSeed))
	for i := 0; i < batchPool; i++ {
		e := &entry{op: opBatch, opt: opt(len(pool) + topkEntries + i)}
		for j := 0; j < batchSize; j++ {
			e.qs = append(e.qs, pool[members.Intn(len(pool))])
		}
		batches = append(batches, e)
	}
	all := append(append(append([]*entry(nil), queries...), topks...), batches...)
	for _, e := range all {
		if err := e.encodeHTTP(); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := references(ctx, db, all); err != nil {
		s.close()
		return nil, err
	}

	// Which entries are popular is part of the fixed data set (a shuffle,
	// so the hot entries are not simply the first pool queries): top-k
	// cost varies several-fold between queries, and a per-seed hot set
	// would move the whole run. The seed draws the requests.
	pop := rand.New(rand.NewSource(dataSeed))
	pq, pt, pb := pop.Perm(len(queries)), pop.Perm(len(topks)), pop.Perm(len(batches))
	rng := rand.New(rand.NewSource(b.cfg.seed))
	zipf := func(n int) *rand.Zipf { return rand.NewZipf(rng, zipfS, 1, uint64(n-1)) }
	zq, zt, zb := zipf(len(queries)), zipf(len(topks)), zipf(len(batches))
	// Arrivals form a Poisson process conditioned on its count: exactly
	// fleetRate × seconds requests at uniformly random times, so the
	// offered load, and with it throughput, does not vary by seed.
	horizon := b.cfg.seconds * float64(time.Second)
	for i := 0; i < int(fleetRate*b.cfg.seconds); i++ {
		s.due = append(s.due, time.Duration(rng.Float64()*horizon))
		switch x := rng.Float64(); {
		case x < fleetBatch:
			s.reqs = append(s.reqs, batches[pb[zb.Uint64()]])
		case x < fleetBatch+fleetTopK:
			s.reqs = append(s.reqs, topks[pt[zt.Uint64()]])
		default:
			s.reqs = append(s.reqs, queries[pq[zq.Uint64()]])
		}
	}
	slices.Sort(s.due)
	return s, nil
}

// churnReads is how many /query reads separate an add from its delete:
// with the add and the delete, one request in five is a write.
const churnReads = 8

// churnSetup serves one database through pgserve and cycles POST /graphs,
// filter_heavy-style reads, DELETE of the graph just added.
func churnSetup(ctx context.Context, b *bench) (*sut, error) {
	ref, db, setups, err := buildRepeated(b.corpus)
	if err != nil {
		return nil, err
	}
	s := &sut{db: db, ref: ref, setups: setups, hc: newClient(1), below: db.Len()}
	t := time.Now()
	if s.single, err = listen(server.New(db, server.Options{}).Handler()); err != nil {
		return nil, err
	}
	s.setups[len(s.setups)-1] += time.Since(t)
	s.exec = httpExec(s.hc, s.single.url, s.below)

	pool := b.corpus.queries[filterEdges]
	reads := make([]*entry, len(pool))
	for i := range pool {
		reads[i] = &entry{op: opQuery, qs: pool[i : i+1], opt: core.QueryOptions{
			Epsilon: 0.9, Delta: 1, OptBounds: true,
			Seed: requestSeed(b.cfg.seed, i), Concurrency: concurrency()}}
	}
	inserts := make([]*entry, len(b.corpus.inserts))
	for i := range inserts {
		body, err := addBody(b.corpus, i)
		if err != nil {
			s.close()
			return nil, err
		}
		inserts[i] = &entry{op: opAdd, insert: i, body: body}
	}
	all := append([]*entry(nil), reads...)
	for _, e := range all {
		if err := e.encodeHTTP(); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := references(ctx, ref, all); err != nil {
		s.close()
		return nil, err
	}
	// A whole pass over the read pool spans len(reads)/churnReads cycles.
	s.cycle = (churnReads + 2) * len(reads) / churnReads
	rng := rand.New(rand.NewSource(b.cfg.seed))
	readOrder := permutedOrder(rng, len(reads), maxRequests(b)/len(reads)+1)
	remove := &entry{op: opRemove}
	for c := 0; len(s.reqs) < maxRequests(b); c++ {
		if c%len(inserts) == 0 {
			rng.Shuffle(len(inserts), func(i, j int) { inserts[i], inserts[j] = inserts[j], inserts[i] })
		}
		s.reqs = append(s.reqs, inserts[c%len(inserts)])
		for r := 0; r < churnReads; r++ {
			s.reqs = append(s.reqs, reads[readOrder[(c*churnReads+r)%len(readOrder)]])
		}
		s.reqs = append(s.reqs, remove)
	}
	return s, nil
}

// endToEnd derives the end-to-end metrics from an untraced window.
func endToEnd(s *sut, t *tally) (gated, extra map[string]float64) {
	okOps := t.attempted - t.failed
	q := t.lat[opQuery]
	gated = map[string]float64{
		"setup_s":        median(durations(s.setups)) / 1000,
		"query_p50_ms":   percentile(q, 0.50),
		"query_p90_ms":   percentile(q, 0.90),
		"throughput_qps": float64(okOps) / t.elapsed.Seconds(),
		"heap_live_mb":   liveHeapMB(),
	}
	extra = map[string]float64{
		"peak_rss_mb": peakRSSMB(),
		"error_rate":  float64(t.failed) / math.Max(1, float64(t.attempted)),
	}
	// A percentile is reported only where at least ten samples lie beyond
	// it.
	if len(q) >= 1000 {
		extra["query_p99_ms"] = percentile(q, 0.99)
	}
	if xs := t.lat[opTopK]; len(xs) > 0 {
		extra["topk_p50_ms"] = percentile(xs, 0.50)
		extra["topk_tail_ms"] = tail(xs)
	}
	if xs := t.lat[opBatch]; len(xs) > 0 {
		extra["batch_p50_ms"] = percentile(xs, 0.50)
	}
	// Adds and removes are reported apart: an add builds an inference
	// engine and a PMI column, a remove only tombstones, so a percentile
	// over both would sit on the boundary between the two.
	for _, op := range []string{opAdd, opRemove} {
		if xs := t.lat[op]; len(xs) > 0 {
			extra[op+"_p50_ms"] = percentile(xs, 0.50)
			extra[op+"_p90_ms"] = percentile(xs, 0.90)
		}
	}
	return gated, extra
}

// tail is the highest of p99, p95 and p90 that has at least ten samples
// beyond it (p90 when none has).
func tail(xs []float64) float64 {
	for _, p := range []float64{0.99, 0.95} {
		if float64(len(xs))*(1-p) >= 10 {
			return percentile(xs, p)
		}
	}
	return percentile(xs, 0.90)
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func describe(s *sut) string {
	if s.due != nil {
		return fmt.Sprintf("open loop, %.0f req/s, %d clients", fleetRate, concurrency())
	}
	return "closed loop, 1 client"
}
