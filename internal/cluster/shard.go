package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"probgraph/internal/obs"
)

// shardResult is one shard's answer to a fan-out sub-request: the HTTP
// status and body on a completed exchange, or the transport error that
// survived the retries.
type shardResult struct {
	shard  Shard
	status int
	body   []byte
	err    error
}

// call performs one shard sub-request: POST body to sh.URL+path under the
// caller's context (client cancellation propagates into the shard),
// bounded per attempt by ShardTimeout, retried on transport errors only —
// an HTTP error status is the shard's answer, not a flaky network, and
// retrying a non-idempotent evaluation would change nothing anyway
// (responses are deterministic). Outcomes feed the shard's health record
// and metrics.
func (c *Coordinator) call(ctx context.Context, sh Shard, path string, body []byte) shardResult {
	sp := obs.SpanFrom(ctx).Child("shard:" + sh.Name + path)
	start := time.Now()
	res := shardResult{shard: sh}
	for attempt := 0; ; attempt++ {
		res.status, res.body, res.err = c.attempt(ctx, sh, path, body)
		if res.err == nil || attempt >= c.opt.Retries || ctx.Err() != nil {
			break
		}
	}
	c.mx.shardLatency[sh.Name].Observe(time.Since(start).Seconds())
	switch {
	case res.err != nil:
		c.mx.shardRequests[sh.Name]["error"].Inc()
		c.health.record(sh.Name, false, res.err.Error())
	case res.status != http.StatusOK:
		c.mx.shardRequests[sh.Name]["http_error"].Inc()
		// A non-200 is a served answer (400/422/504...), not a shard
		// outage: the shard is up and talking, so health stays good.
		c.health.record(sh.Name, true, "")
	default:
		c.mx.shardRequests[sh.Name]["ok"].Inc()
		c.health.record(sh.Name, true, "")
	}
	sp.End()
	return res
}

// attempt is one HTTP exchange with a shard.
func (c *Coordinator) attempt(ctx context.Context, sh Shard, path string, body []byte) (int, []byte, error) {
	actx := ctx
	if c.opt.ShardTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opt.ShardTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, sh.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// fanout POSTs body to path on every shard concurrently and waits for all
// of them (each bounded by ShardTimeout and the request context, so the
// wait is bounded too). Results are in shard order.
func (c *Coordinator) fanout(ctx context.Context, path string, body []byte) []shardResult {
	out := make([]shardResult, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			out[i] = c.call(ctx, sh, path, body)
		}(i, sh)
	}
	wg.Wait()
	return out
}

// shardErrorBody is the structured error payload shards answer non-200
// with (the single-node server's HTTPError / evalError shapes).
type shardErrorBody struct {
	Error     string `json:"error"`
	Timeout   bool   `json:"timeout"`
	Cancelled bool   `json:"cancelled"`
}

// shardFailure scans fan-out results in shard order and reports the first
// one that prevents a complete merge, as the HTTP answer the coordinator
// must give. Shard order makes the choice deterministic when several
// shards fail at once. nil means every shard answered 200.
//
// Mapping: a transport failure (after retries) is a 503 naming the shard
// — the structured "one shard down" answer, never a silently partial
// result. A shard's own structured error propagates with its status
// (504 deadline, 503 cancelled, 422 evaluation), prefixed with the shard
// name so operators see where it happened.
func shardFailure(results []shardResult) *coordError {
	for _, res := range results {
		if res.err != nil {
			return &coordError{
				status: http.StatusServiceUnavailable,
				shard:  res.shard.Name,
				msg:    fmt.Sprintf("shard %s (%s) unreachable: %v", res.shard.Name, res.shard.URL, res.err),
			}
		}
		if res.status != http.StatusOK {
			var body shardErrorBody
			msg := fmt.Sprintf("shard %s answered %d", res.shard.Name, res.status)
			if json.Unmarshal(res.body, &body) == nil && body.Error != "" {
				msg = fmt.Sprintf("shard %s: %s", res.shard.Name, body.Error)
			}
			return &coordError{
				status: res.status, shard: res.shard.Name, msg: msg,
				timeout: body.Timeout, cancelled: body.Cancelled,
			}
		}
	}
	return nil
}

// generationMismatch checks that every shard answered from the same
// database generation — merging across generations would silently mix
// two database states. The fleet operator re-partitions all shards from
// one source snapshot, so a mismatch means a half-rolled-out fleet:
// answered 503 (retry when the rollout settles), naming both shards.
func generationMismatch(results []shardResult, gens []uint64) *coordError {
	for i := 1; i < len(gens); i++ {
		if gens[i] != gens[0] {
			return &coordError{
				status: http.StatusServiceUnavailable,
				shard:  results[i].shard.Name,
				msg: fmt.Sprintf("shard generation mismatch: %s at %d, %s at %d",
					results[0].shard.Name, gens[0], results[i].shard.Name, gens[i]),
			}
		}
	}
	return nil
}

// coordError is a structured coordinator-level failure.
type coordError struct {
	status    int
	shard     string
	msg       string
	timeout   bool
	cancelled bool
}

func (e *coordError) Error() string { return e.msg }

func (e *coordError) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	out := map[string]any{"error": e.msg}
	if e.shard != "" {
		out["shard"] = e.shard
	}
	if e.timeout {
		out["timeout"] = true
	}
	if e.cancelled {
		out["cancelled"] = true
	}
	json.NewEncoder(w).Encode(out)
}
