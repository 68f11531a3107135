package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/server"
)

// Operation names, as they appear in metric names.
const (
	opQuery  = "query"
	opTopK   = "topk"
	opBatch  = "batch"
	opAdd    = "add"
	opRemove = "remove"
)

// entry is one distinct request of a workload's pool, with the answer the
// in-process reference database gave for it at set-up.
type entry struct {
	op  string
	qs  []*graph.Graph // the query, or a batch's members
	opt core.QueryOptions
	k   int // top-k size
	// insert is the insert-pool graph an add request carries.
	insert int

	body []byte // the request as sent over HTTP

	ref      *core.Result
	refTopK  []core.TopKItem
	refBatch []*core.Result
}

// computeReference answers e in-process against ref.
func (e *entry) computeReference(ctx context.Context, ref *core.View) error {
	opt := e.opt
	var err error
	switch e.op {
	case opQuery:
		e.ref, err = ref.QueryCtx(ctx, e.qs[0], opt)
	case opTopK:
		e.refTopK, err = ref.QueryTopKCtx(ctx, e.qs[0], e.k, opt)
	case opBatch:
		e.refBatch, err = ref.QueryBatchCtx(ctx, e.qs, opt)
	}
	if err != nil {
		return fmt.Errorf("reference %s: %w", e.op, err)
	}
	return nil
}

// encodeHTTP prepares the request body for the pgserve API.
func (e *entry) encodeHTTP() error {
	var v any
	switch e.op {
	case opQuery, opTopK:
		v = e.queryRequest(false)
	case opBatch:
		v = e.batchRequest(false)
	default:
		return nil
	}
	var err error
	e.body, err = json.Marshal(v)
	return err
}

func (e *entry) batchRequest(noCache bool) server.BatchRequest {
	req := server.BatchRequest{Epsilon: e.opt.Epsilon, Delta: e.opt.Delta, Seed: e.opt.Seed,
		Workers: e.opt.Concurrency, NoCache: noCache}
	for _, q := range e.qs {
		req.Queries = append(req.Queries, *server.GraphToJSON(q))
	}
	return req
}

func (e *entry) queryRequest(noCache bool) server.QueryRequest {
	return server.QueryRequest{
		Graph: server.GraphToJSON(e.qs[0]), Epsilon: e.opt.Epsilon, Delta: e.opt.Delta,
		Seed: e.opt.Seed, Workers: e.opt.Concurrency, K: e.k, NoCache: noCache,
	}
}

// uncachedBody is e's HTTP request with the result cache bypassed, as the
// traced run sends it to measure a server's own work.
func (e *entry) uncachedBody() []byte {
	var v any = e.queryRequest(true)
	if e.op == opBatch {
		v = e.batchRequest(true)
	}
	b, _ := json.Marshal(v) // plain structs of strings and numbers always encode
	return b
}

// path is the API endpoint serving e.
func (e *entry) path() string {
	switch e.op {
	case opTopK:
		return "/topk"
	case opBatch:
		return "/batch"
	}
	return "/query"
}

// sameResult reports whether an answer set and SSP map equal the
// reference bitwise. below > 0 restricts both sides to graph ids < below.
func sameResult(ref *core.Result, answers []int, ssp map[int]float64, below int) bool {
	keep := func(gi int) bool { return below <= 0 || gi < below }
	var got []int
	for _, gi := range answers {
		if keep(gi) {
			got = append(got, gi)
		}
	}
	if !slices.Equal(got, ref.Answers) {
		return false
	}
	n := 0
	for gi, p := range ssp {
		if !keep(gi) {
			continue
		}
		n++
		if want, ok := ref.SSP[gi]; !ok || want != p {
			return false
		}
	}
	return n == len(ref.SSP)
}

// checkInProcess compares an in-process answer with the reference.
func (e *entry) checkInProcess(res *core.Result) error {
	if !sameResult(e.ref, res.Answers, res.SSP, 0) {
		return errMismatch
	}
	return nil
}

// checkHTTP decodes a pgserve/pgproxy response and compares it with the
// reference. below > 0 ignores graph ids at or above it (churn's inserts).
// It also reports whether the response was served from a result cache.
func (e *entry) checkHTTP(body []byte, below int) (cached bool, err error) {
	switch e.op {
	case opQuery:
		var r server.QueryResponse
		if err := decode(body, &r); err != nil {
			return false, err
		}
		if !sameResult(e.ref, r.Answers, r.SSP, below) {
			return r.Cached, errMismatch
		}
		return r.Cached, nil
	case opTopK:
		var r server.TopKResponse
		if err := decode(body, &r); err != nil {
			return false, err
		}
		if len(r.Items) != len(e.refTopK) {
			return r.Cached, errMismatch
		}
		for i, it := range r.Items {
			if it.Graph != e.refTopK[i].Graph || it.SSP != e.refTopK[i].SSP {
				return r.Cached, errMismatch
			}
		}
		return r.Cached, nil
	case opBatch:
		var r server.BatchResponse
		if err := decode(body, &r); err != nil {
			return false, err
		}
		if len(r.Results) != len(e.refBatch) {
			return false, errMismatch
		}
		cached = true
		for i, qr := range r.Results {
			cached = cached && qr.Cached
			if !sameResult(e.refBatch[i], qr.Answers, qr.SSP, below) {
				return cached, errMismatch
			}
		}
		return cached, nil
	}
	return false, fmt.Errorf("no HTTP check for %s", e.op)
}

// addBody is the POST /graphs payload for insert-pool graph i.
func addBody(c *corpus, i int) ([]byte, error) {
	var sb strings.Builder
	if err := dataset.EncodePGraph(&sb, c.inserts[i], 0); err != nil {
		return nil, err
	}
	return json.Marshal(server.AddGraphRequest{GraphText: sb.String()})
}

// checkMutation verifies a mutation response: the op, the slot it
// touched, and the live graph count afterwards.
func checkMutation(body []byte, op string, slot, live int) error {
	var r server.MutationResponse
	if err := decode(body, &r); err != nil {
		return err
	}
	if r.Op != op || r.Index != slot || r.Graphs != live {
		return fmt.Errorf("%s: got op=%s index=%d live=%d, want index=%d live=%d: %w",
			op, r.Op, r.Index, r.Graphs, slot, live, errMismatch)
	}
	return nil
}

func removeURL(base string, slot int) string { return base + "/graphs/" + strconv.Itoa(slot) }

// tally collects one measurement window's per-operation latencies and
// outcomes. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	lat       map[string][]float64 // op → latency in ms
	lag       []float64            // generator lateness in ms
	attempted int
	failed    int
	cached    int
	httpOps   int
	firstErr  error
	elapsed   time.Duration
}

func newTally() *tally { return &tally{lat: map[string][]float64{}} }

// record counts one operation. A failed, refused or wrong operation
// counts against the attempts and contributes no latency sample.
func (t *tally) record(op string, o outcome, lag time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.lag = append(t.lag, ms(lag))
	if o.http {
		t.httpOps++
		if o.cached {
			t.cached++
		}
	}
	if o.err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s: %w", op, o.err)
		}
		return
	}
	t.lat[op] = append(t.lat[op], ms(o.lat))
}

// ops returns the recorded operation names in sorted order.
func (t *tally) ops() []string { return slices.Sorted(maps.Keys(t.lat)) }

// outcome is what one executed request reports back to the loop.
type outcome struct {
	lat    time.Duration // excludes harness-side decoding and checking
	http   bool          // answered over HTTP, so cached is meaningful
	cached bool          // served from a result cache
	err    error         // failed, refused or wrong
}

// exec runs one request against a workload's system and checks its
// answer.
type exec func(ctx context.Context, e *entry) outcome

// closedLoop issues reqs one after another until the window closes or
// reqs run out; it stops only where boundary allows. Generator lag is the
// gap between one completion and the next send: the harness's own
// overhead.
func closedLoop(ctx context.Context, window time.Duration, reqs []*entry, boundary func(int) bool, run exec) *tally {
	t := newTally()
	start := time.Now()
	last := start
	for i, e := range reqs {
		if boundary(i) && time.Since(start) >= window {
			break
		}
		sent := time.Now()
		o := run(ctx, e)
		t.record(e.op, o, sent.Sub(last))
		last = time.Now()
	}
	t.elapsed = time.Since(start)
	return t
}

// openLoop issues reqs[i] at start+due[i] from a fixed set of client
// goroutines, regardless of how earlier requests fare. Latency runs from
// the due time, so a stall also charges the requests queued behind it;
// lag is how late each request was actually sent.
func openLoop(ctx context.Context, clients int, due []time.Duration, reqs []*entry, run exec) *tally {
	t := newTally()
	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				o := run(ctx, reqs[i])
				o.lat = time.Since(at)
				t.record(reqs[i].op, o, sent.Sub(at))
			}
		}()
	}
	for i := range reqs {
		// Hand out requests in order; a client picks the next one up only
		// when free, so queueing shows as lag, never as reordering.
		select {
		case next <- i:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(next)
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}

// httpExec runs requests against a pgserve-compatible endpoint and checks
// every response. below > 0 restricts answer checks to the original
// graphs, whose ids never move. Writes (churn only) are tracked here: an
// add must land in the next free slot, and a remove deletes the graph the
// previous add created. Writes are issued by a single client.
func httpExec(hc *http.Client, base string, below int) exec {
	nextSlot, lastAdded := below, -1
	return func(ctx context.Context, e *entry) outcome {
		switch e.op {
		case opAdd:
			body, took, err := call(ctx, hc, http.MethodPost, base+"/graphs", e.body)
			if err == nil {
				err = checkMutation(body, opAdd, nextSlot, below+1)
			}
			if err == nil {
				lastAdded = nextSlot
				nextSlot++
			}
			return outcome{lat: took, err: err}
		case opRemove:
			body, took, err := call(ctx, hc, http.MethodDelete, removeURL(base, lastAdded), nil)
			if err == nil {
				err = checkMutation(body, opRemove, lastAdded, below)
			}
			return outcome{lat: took, err: err}
		}
		body, took, err := call(ctx, hc, http.MethodPost, base+e.path(), e.body)
		o := outcome{lat: took, http: true, err: err}
		if err == nil {
			o.cached, o.err = e.checkHTTP(body, below)
		}
		return o
	}
}
