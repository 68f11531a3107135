package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"probgraph/internal/server"
)

// handleQuery is POST /query: validate once, fan the identical body out
// to every shard, merge. Shards hold disjoint global-id ranges and answer
// in global ids, so the merge is a disjoint sorted union — bitwise the
// single-node answer set, with bitwise the single-node SSP values.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if _, _, err := req.Check(); err != nil {
		server.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	body, err := json.Marshal(&req)
	if err != nil {
		server.HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resps, ce := c.queryShards(r.Context(), "/query", body)
	if ce != nil {
		ce.write(w)
		return
	}
	merged := mergeQuery(resps)
	merged.TimeMS = float64(time.Since(start).Microseconds()) / 1000
	if server.TraceWanted(r, req.Trace) {
		merged.Trace = server.TraceTree(r)
	}
	server.WriteJSON(w, merged)
}

// handleBatch is POST /batch: one fan-out carrying the whole batch (each
// shard derives the same per-member seeds from the base seed), merged
// member-wise.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	qs, _, err := req.Check()
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	body, err := json.Marshal(&req)
	if err != nil {
		server.HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	results := c.fanout(r.Context(), "/batch", body)
	if ce := shardFailure(results); ce != nil {
		ce.write(w)
		return
	}
	batches := make([]*server.BatchResponse, len(results))
	gens := make([]uint64, len(results))
	for i, res := range results {
		var br server.BatchResponse
		if err := json.Unmarshal(res.body, &br); err != nil || len(br.Results) != len(qs) {
			badShardResponse(w, res.shard)
			return
		}
		batches[i] = &br
		gens[i] = br.Results[0].Generation
	}
	if ce := generationMismatch(results, gens); ce != nil {
		ce.write(w)
		return
	}
	out := server.BatchResponse{TimeMS: float64(time.Since(start).Microseconds()) / 1000}
	member := make([]*server.QueryResponse, len(results))
	for qi := range qs {
		for si := range batches {
			member[si] = batches[si].Results[qi]
		}
		out.Results = append(out.Results, mergeQuery(member))
	}
	if server.TraceWanted(r, req.Trace) {
		out.Trace = server.TraceTree(r)
	}
	server.WriteJSON(w, out)
}

// queryShards fans body out to path on every shard, decodes the
// QueryResponse answers, and enforces the all-or-nothing and same-
// generation rules.
func (c *Coordinator) queryShards(ctx context.Context, path string, body []byte) ([]*server.QueryResponse, *coordError) {
	results := c.fanout(ctx, path, body)
	if ce := shardFailure(results); ce != nil {
		return nil, ce
	}
	resps := make([]*server.QueryResponse, len(results))
	gens := make([]uint64, len(results))
	for i, res := range results {
		var qr server.QueryResponse
		if err := json.Unmarshal(res.body, &qr); err != nil {
			return nil, &coordError{
				status: http.StatusBadGateway, shard: res.shard.Name,
				msg: "shard " + res.shard.Name + ": undecodable response",
			}
		}
		resps[i] = &qr
		gens[i] = qr.Generation
	}
	if ce := generationMismatch(results, gens); ce != nil {
		return nil, ce
	}
	return resps, nil
}

// mergeQuery folds per-shard /query responses into the single-node
// response. Answer sets are disjoint (each global id lives on exactly one
// shard) and per-shard sorted, so the union sorted by global id is
// exactly the single-node answer slice; SSP maps union without conflicts.
// Pipeline counters sum — except RelaxedQueries, which every shard
// computes identically from the query alone (a sum would multiply it by
// the fleet size). Cached is the fleet AND: the merged answer came from
// caches only if every part did.
func mergeQuery(resps []*server.QueryResponse) *server.QueryResponse {
	type pair struct {
		gid  int
		name string
	}
	var pairs []pair
	out := &server.QueryResponse{
		Answers:    []int{},
		Names:      []string{},
		SSP:        map[int]float64{},
		Generation: resps[0].Generation,
		Cached:     true,
	}
	for _, qr := range resps {
		for i, gid := range qr.Answers {
			pairs = append(pairs, pair{gid, qr.Names[i]})
		}
		for gid, p := range qr.SSP {
			out.SSP[gid] = p
		}
		out.Cached = out.Cached && qr.Cached
		st, add := &out.Stats, qr.Stats
		st.StructFilterCandidates += add.StructFilterCandidates
		st.StructConfirmed += add.StructConfirmed
		st.PrunedByUpper += add.PrunedByUpper
		st.AcceptedByLower += add.AcceptedByLower
		st.VerifyCandidates += add.VerifyCandidates
		st.VerifyTruncated += add.VerifyTruncated
		if add.RelaxedQueries > st.RelaxedQueries {
			st.RelaxedQueries = add.RelaxedQueries
		}
		st.TimeStructMS += add.TimeStructMS
		st.TimeProbMS += add.TimeProbMS
		st.TimeVerifyMS += add.TimeVerifyMS
		st.TimeTotalMS += add.TimeTotalMS
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].gid < pairs[j].gid })
	for _, p := range pairs {
		out.Answers = append(out.Answers, p.gid)
		out.Names = append(out.Names, p.name)
	}
	return out
}

func badShardResponse(w http.ResponseWriter, sh Shard) {
	(&coordError{
		status: http.StatusBadGateway, shard: sh.Name,
		msg: "shard " + sh.Name + ": undecodable response",
	}).write(w)
}
