package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"probgraph/internal/obs"
	"probgraph/internal/server"
)

// streamWriteTimeout mirrors the single-node per-write deadline: each
// forwarded line gets this long to reach the client before the
// connection is reclaimed as dead.
const streamWriteTimeout = 30 * time.Second

// handleQueryStream is POST /query/stream, distributed: one NDJSON
// stream per shard, match lines forwarded to the client verbatim as they
// arrive (they already carry global ids), then one merged summary line.
// Match arrival order interleaves across shards — exactly as it already
// interleaves across workers on a single node — while the summary
// (sorted answers, SSP map, count) is bitwise the single-node summary.
//
// A shard failing mid-stream aborts every other shard stream and ends
// the output with an in-band StreamErrorJSON naming the shard — the
// stream never just stops as if complete. ShardTimeout deliberately does
// not bound shard streams (a legitimate stream outlives any per-attempt
// budget); the client's timeout_ms travels in the body and bounds each
// shard's evaluation, and client disconnect cancels everything through
// the request context. Streams are never retried: forwarded lines
// cannot be unsent.
func (c *Coordinator) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if req.K != 0 {
		server.HTTPError(w, http.StatusBadRequest, "k is not supported on /query/stream")
		return
	}
	if _, _, err := req.Check(); err != nil {
		server.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := json.Marshal(&req)
	if err != nil {
		server.HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	start := time.Now()
	sctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ab := &streamAbort{cancel: cancel}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	sink := &streamSink{w: w, rc: http.NewResponseController(w), ssp: make(map[int]float64)}

	var wg sync.WaitGroup
	for _, sh := range c.shards {
		wg.Add(1)
		go func(sh Shard) {
			defer wg.Done()
			c.streamShard(sctx, sh, body, sink, ab)
		}(sh)
	}
	wg.Wait()

	if ce := ab.failure(); ce != nil {
		sink.emitJSON(server.StreamErrorJSON{
			Error: ce.msg, Timeout: ce.timeout, Cancelled: ce.cancelled,
		})
		return
	}
	sink.summary(start)
}

// streamAbort coordinates mid-stream failure: the first shard to fail
// records its structured error and cancels every sibling stream (whose
// own cancellation-induced endings are then not recorded over it).
type streamAbort struct {
	mu     sync.Mutex
	ce     *coordError
	cancel context.CancelFunc
}

func (a *streamAbort) abort(ce *coordError) {
	a.mu.Lock()
	if a.ce == nil {
		a.ce = ce
	}
	a.mu.Unlock()
	a.cancel()
}

func (a *streamAbort) failure() *coordError {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ce
}

// streamSink is the mutex-guarded client side of the fan-in: shard
// goroutines forward lines through it one at a time, and it accumulates
// the forwarded matches for the merged summary.
type streamSink struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	rc      *http.ResponseController
	failed  bool // client write failed; drop everything further
	answers []int
	ssp     map[int]float64
}

// forward writes one raw match line (newline included) and records it
// for the summary. false means the client is gone.
func (s *streamSink) forward(line []byte, gid int, ssp float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return false
	}
	s.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if _, err := s.w.Write(line); err != nil {
		s.failed = true
		return false
	}
	s.rc.Flush()
	s.answers = append(s.answers, gid)
	s.ssp[gid] = ssp
	return true
}

func (s *streamSink) emitJSON(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return
	}
	s.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if json.NewEncoder(s.w).Encode(v) != nil {
		s.failed = true
		return
	}
	s.rc.Flush()
}

// summary emits the merged terminal line: the union of every shard's
// forwarded matches, sorted — bitwise the single-node summary, because
// the shards' match sets partition the single node's.
func (s *streamSink) summary(start time.Time) {
	s.mu.Lock()
	answers := s.answers
	if answers == nil {
		answers = []int{}
	}
	sort.Ints(answers)
	s.mu.Unlock()
	s.emitJSON(server.StreamSummaryJSON{
		Done:    true,
		Answers: answers,
		SSP:     s.ssp,
		Count:   len(answers),
		TimeMS:  float64(time.Since(start).Microseconds()) / 1000,
	})
}

// streamLine is the probe shape every shard NDJSON line decodes into:
// error lines carry Error and the terminal summary carries Done. It must
// not declare graph/ssp — a match line's ssp is a number but the summary
// line's is a map, so those fields decode per-shape in a second step.
type streamLine struct {
	Done      bool   `json:"done"`
	Error     string `json:"error"`
	Timeout   bool   `json:"timeout"`
	Cancelled bool   `json:"cancelled"`
}

// streamShard runs one shard's /query/stream, forwarding its match lines
// into the sink until the shard's summary arrives. Any failure — unreachable,
// non-200, in-band error line, or a stream that ends without a summary —
// aborts the whole fan-in with a structured error naming the shard.
func (c *Coordinator) streamShard(ctx context.Context, sh Shard, body []byte, sink *streamSink, ab *streamAbort) {
	sp := obs.SpanFrom(ctx).Child("shard:" + sh.Name + "/query/stream")
	start := time.Now()
	outcome, errMsg := "ok", ""
	defer func() {
		c.mx.shardLatency[sh.Name].Observe(time.Since(start).Seconds())
		c.mx.shardRequests[sh.Name][outcome].Inc()
		c.health.record(sh.Name, outcome != "error", errMsg)
		sp.End()
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.URL+"/query/stream", bytes.NewReader(body))
	if err != nil {
		outcome, errMsg = "error", err.Error()
		ab.abort(&coordError{
			status: http.StatusServiceUnavailable, shard: sh.Name,
			msg: "shard " + sh.Name + " (" + sh.URL + ") unreachable: " + err.Error(),
		})
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		outcome, errMsg = "error", err.Error()
		if ctx.Err() == nil {
			ab.abort(&coordError{
				status: http.StatusServiceUnavailable, shard: sh.Name,
				msg: "shard " + sh.Name + " (" + sh.URL + ") unreachable: " + err.Error(),
			})
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		outcome = "http_error"
		var eb shardErrorBody
		msg := "shard " + sh.Name + " answered " + resp.Status
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = "shard " + sh.Name + ": " + eb.Error
		}
		ab.abort(&coordError{
			status: resp.StatusCode, shard: sh.Name, msg: msg,
			timeout: eb.Timeout, cancelled: eb.Cancelled,
		})
		return
	}

	br := bufio.NewReader(resp.Body)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var probe streamLine
			if json.Unmarshal(line, &probe) != nil {
				outcome, errMsg = "error", "undecodable stream line"
				ab.abort(&coordError{
					status: http.StatusBadGateway, shard: sh.Name,
					msg: "shard " + sh.Name + ": undecodable stream line",
				})
				return
			}
			switch {
			case probe.Error != "":
				// The shard's own in-band failure: propagate its structured
				// flags; status mirrors evalError's mapping.
				outcome = "http_error"
				status := http.StatusUnprocessableEntity
				if probe.Timeout {
					status = http.StatusGatewayTimeout
				} else if probe.Cancelled {
					status = http.StatusServiceUnavailable
				}
				ab.abort(&coordError{
					status: status, shard: sh.Name,
					msg:     "shard " + sh.Name + ": " + probe.Error,
					timeout: probe.Timeout, cancelled: probe.Cancelled,
				})
				return
			case probe.Done:
				return // shard complete; its summary is re-derived by the sink
			default:
				var m server.StreamMatchJSON
				if json.Unmarshal(line, &m) != nil {
					outcome, errMsg = "error", "undecodable stream line"
					ab.abort(&coordError{
						status: http.StatusBadGateway, shard: sh.Name,
						msg: "shard " + sh.Name + ": undecodable stream line",
					})
					return
				}
				if !sink.forward(line, m.Graph, m.SSP) {
					return // client gone; request context cancels the fleet
				}
			}
		}
		if rerr != nil {
			// EOF (or a mid-body transport error) before the summary line:
			// the shard died mid-stream. Under a coordinator-issued abort the
			// cancellation is ours, not the shard's failure — stay silent.
			if ctx.Err() == nil {
				outcome, errMsg = "error", "stream ended before summary"
				ab.abort(&coordError{
					status: http.StatusServiceUnavailable, shard: sh.Name,
					msg: "shard " + sh.Name + ": stream ended before summary: " + rerr.Error(),
				})
			} else {
				outcome, errMsg = "error", ctx.Err().Error()
			}
			return
		}
	}
}
