package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/obs"
)

var (
	errBatchBothPayloads = errors.New("give either queries or query_texts, not both")
	errBatchEmpty        = errors.New("empty batch")
)

// This file is the shard side of distributed serving (see
// internal/cluster): the request validation pgserve and the coordinator
// share, and the two shard-internal endpoints the distributed
// top-k replay needs — /topk/bounds (the verification schedule, no
// verification) and /topk/verify (SSPs for an explicit global-id list).
// Both speak global graph ids on the wire, like every other endpoint on
// a partition.

// Check validates every result-affecting knob of the request — the query
// graph parses, the verifier is known, ε/δ are in range, timeout_ms is
// non-negative — and returns the parsed query with its engine options.
// It is the one validation step of every query endpoint on pgserve and on
// the coordinator, so both answer a malformed request with the same 400;
// the coordinator runs it before fanning out, so a bad request costs one
// 400 instead of N shard round-trips. Concurrency is the request's workers
// knob as given: 0 leaves the server default.
func (req *QueryRequest) Check() (*graph.Graph, core.QueryOptions, error) {
	q, err := parseGraphPayload(req.Graph, req.GraphText)
	if err != nil {
		return nil, core.QueryOptions{}, err
	}
	opt, err := checkOptions(req.Epsilon, req.Delta, req.Verifier, req.Plain, req.Seed, req.Workers, req.TimeoutMS)
	if err != nil {
		return nil, core.QueryOptions{}, err
	}
	return q, opt, nil
}

// Check validates a batch request the way QueryRequest.Check validates a
// query (either queries or query_texts, at least one member, every member
// parses, options in range) and returns the parsed members in request
// order with the options they share.
func (req *BatchRequest) Check() ([]*graph.Graph, core.QueryOptions, error) {
	if len(req.Queries) > 0 && len(req.QueryTexts) > 0 {
		return nil, core.QueryOptions{}, errBatchBothPayloads
	}
	var qs []*graph.Graph
	for i := range req.Queries {
		q, err := GraphFromJSON(&req.Queries[i])
		if err != nil {
			return nil, core.QueryOptions{}, fmt.Errorf("query %d: %v", i, err)
		}
		qs = append(qs, q)
	}
	for i, text := range req.QueryTexts {
		q, err := parseGraphPayload(nil, text)
		if err != nil {
			return nil, core.QueryOptions{}, fmt.Errorf("query %d: %v", i, err)
		}
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return nil, core.QueryOptions{}, errBatchEmpty
	}
	opt, err := checkOptions(req.Epsilon, req.Delta, req.Verifier, req.Plain, req.Seed, req.Workers, req.TimeoutMS)
	if err != nil {
		return nil, core.QueryOptions{}, err
	}
	return qs, opt, nil
}

// checkOptions translates the knobs QueryRequest and BatchRequest share
// to engine options, rejecting an unknown verifier, ε/δ out of range and
// a negative timeout_ms (0 means the server default deadline).
func checkOptions(epsilon float64, delta int, verifier string, plain bool, seed int64, workers int, timeoutMS int64) (core.QueryOptions, error) {
	vk, err := verifierKind(verifier)
	if err != nil {
		return core.QueryOptions{}, err
	}
	opt := core.QueryOptions{
		Epsilon:     epsilon,
		Delta:       delta,
		OptBounds:   !plain,
		Verifier:    vk,
		Seed:        seed,
		Concurrency: workers,
	}
	if err := opt.Validate(); err != nil {
		return core.QueryOptions{}, err
	}
	if timeoutMS < 0 {
		return core.QueryOptions{}, fmt.Errorf("timeout_ms must be >= 0, got %d", timeoutMS)
	}
	return opt, nil
}

// TopKBoundJSON is one /topk/bounds schedule entry: a candidate's global
// graph id, its name, and its clamped SSP upper bound.
type TopKBoundJSON struct {
	Graph int     `json:"graph"`
	Name  string  `json:"name"`
	Upper float64 `json:"upper"`
}

// TopKBoundsResponse is the /topk/bounds reply: this shard's top-k
// verification schedule, sorted in serial verification order (upper
// descending, global id ascending). Degenerate marks the δ ≥ |E(q)| case,
// where bounds lists the shard's first k live graphs (all with SSP 1) and
// nothing needs verification.
type TopKBoundsResponse struct {
	Degenerate bool            `json:"degenerate"`
	Bounds     []TopKBoundJSON `json:"bounds"`
	Generation uint64          `json:"generation"`
	TimeMS     float64         `json:"time_ms"`
	Trace      *obs.SpanNode   `json:"trace,omitempty"`
}

// TopKVerifyRequest is the /topk/verify payload: a query (all the /topk
// knobs except k apply — seed, verifier, delta, workers) plus the global
// ids to verify, each of which must live on this shard.
type TopKVerifyRequest struct {
	QueryRequest
	Graphs []int `json:"graphs"`
}

// TopKVerifyResponse is the /topk/verify reply: SSP estimates keyed by
// global id, bitwise-identical to what the full database's top-k
// verification computes for those graphs.
type TopKVerifyResponse struct {
	SSP        map[int]float64 `json:"ssp"`
	Generation uint64          `json:"generation"`
	TimeMS     float64         `json:"time_ms"`
}

// handleTopKBounds is POST /topk/bounds: the top-k schedule of this
// server's graphs — upper bounds only, no verification. A distributed
// coordinator merges the schedules of every shard by (upper, global id)
// and replays the serial early-termination rule over the union; see
// internal/cluster. Not cached: the coordinator owns caching of the
// merged result.
func (s *Server) handleTopKBounds(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if req.K <= 0 {
		HTTPError(w, http.StatusBadRequest, "k must be positive")
		return
	}
	q, opt, ok := s.check(w, &req)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()

	v := s.db.View()
	s.metrics.queries["topk_bounds"].Inc()
	release := s.acquire()
	bounds, degenerate, err := v.QueryTopKBounds(ctx, q, req.K, opt)
	release()
	if err != nil {
		evalError(w, "topk bounds failed", err)
		return
	}
	resp := TopKBoundsResponse{
		Degenerate: degenerate,
		Bounds:     make([]TopKBoundJSON, 0, len(bounds)),
		Generation: v.Generation,
		TimeMS:     float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, b := range bounds {
		resp.Bounds = append(resp.Bounds, TopKBoundJSON{
			Graph: v.GID(b.Graph), Name: v.Graphs[b.Graph].G.Name(), Upper: b.Upper,
		})
	}
	if TraceWanted(r, req.Trace) {
		resp.Trace = TraceTree(r)
	}
	WriteJSON(w, resp)
}

// handleTopKVerify is POST /topk/verify: SSP estimates for an explicit
// list of this server's graphs, by global id. The estimates are the ones
// the serial top-k run would compute (per-candidate seeding from the
// global id alone), so the coordinator can fold them into its replayed
// commit loop unchanged.
func (s *Server) handleTopKVerify(w http.ResponseWriter, r *http.Request) {
	var req TopKVerifyRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if len(req.Graphs) == 0 {
		HTTPError(w, http.StatusBadRequest, "empty graphs list")
		return
	}
	q, opt, ok := s.check(w, &req.QueryRequest)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()

	v := s.db.View()
	locals := make([]int, len(req.Graphs))
	for i, g := range req.Graphs {
		li := v.LocalOf(g)
		if li < 0 || !v.Live(li) {
			HTTPError(w, http.StatusBadRequest, "graph %d is not on this shard", g)
			return
		}
		locals[i] = li
	}
	s.metrics.queries["topk_verify"].Add(int64(len(locals)))
	release := s.acquire()
	ssps, err := v.VerifySSPBatch(ctx, q, locals, opt)
	release()
	if err != nil {
		evalError(w, "topk verify failed", err)
		return
	}
	resp := TopKVerifyResponse{
		SSP:        make(map[int]float64, len(ssps)),
		Generation: v.Generation,
		TimeMS:     float64(time.Since(start).Microseconds()) / 1000,
	}
	for i, p := range ssps {
		resp.SSP[req.Graphs[i]] = p
	}
	WriteJSON(w, resp)
}
