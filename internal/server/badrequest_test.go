package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"probgraph/internal/cluster"
	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/server"
)

// badRequestEnv serves one database from a single pgserve and from a
// 2-shard coordinator over its range partitions, and holds a valid
// request body per endpoint for the cases to spoil.
type badRequestEnv struct {
	single, coord string
	valid         map[string]map[string]any
}

func newBadRequestEnv(t *testing.T) *badRequestEnv {
	t.Helper()
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 8, MinVertices: 5, MaxVertices: 7, Organisms: 2,
		Correlated: true, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.NewDatabase(raw.Graphs, core.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	serve := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	env := &badRequestEnv{single: serve(server.New(db, server.Options{}).Handler())}
	ranges, err := core.PartitionRanges(db.Len(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var shards []cluster.Shard
	for i, r := range ranges {
		part, err := db.Partition(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, cluster.Shard{
			Name: fmt.Sprintf("s%d", i), URL: serve(server.New(part, server.Options{}).Handler()),
		})
	}
	coord, err := cluster.New(cluster.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	env.coord = serve(coord.Handler())

	var qtext bytes.Buffer
	q := dataset.ExtractQuery(raw.Graphs[0].G, 3, rand.New(rand.NewSource(3)))
	if err := graph.Encode(&qtext, q); err != nil {
		t.Fatal(err)
	}
	query := map[string]any{"graph_text": qtext.String(), "epsilon": 0.5, "delta": 1}
	with := func(k string, v any) map[string]any {
		m := maps.Clone(query)
		m[k] = v
		return m
	}
	env.valid = map[string]map[string]any{
		"/query":        query,
		"/query/stream": query,
		"/topk":         with("k", 2),
		"/topk/bounds":  with("k", 2),
		"/topk/verify":  with("graphs", []int{0}),
		"/batch":        {"query_texts": []string{qtext.String()}, "epsilon": 0.5, "delta": 1},
	}
	return env
}

// body is the valid request for path with the fields of spoil set over
// it, followed by trailing.
func (env *badRequestEnv) body(t *testing.T, path string, spoil map[string]any, trailing string) []byte {
	t.Helper()
	req := maps.Clone(env.valid[path])
	maps.Copy(req, spoil)
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, trailing...)
}

func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// coordinatorServes lists the endpoints pgproxy exposes; /topk/bounds and
// /topk/verify are shard-internal.
var coordinatorServes = map[string]bool{"/query": true, "/query/stream": true, "/topk": true, "/batch": true}

// TestBadThresholdsAre400: every malformed query request — out-of-range
// ε/δ, unknown verifier, negative timeout, unparsable graph, bad k, data
// after the JSON body — is a structured 400 before any evaluation, not an
// evaluation failure (422). That holds on /query/stream too, where a late
// rejection would instead surface as an in-band NDJSON line after a 200.
// The 2-shard coordinator answers each one with exactly pgserve's status
// and body.
func TestBadThresholdsAre400(t *testing.T) {
	env := newBadRequestEnv(t)
	all := []string{"/query", "/query/stream", "/topk", "/topk/bounds", "/topk/verify", "/batch"}
	single := []string{"/query", "/query/stream", "/topk", "/topk/bounds", "/topk/verify"}
	cases := []struct {
		name     string
		paths    []string
		spoil    map[string]any
		trailing string
		want     string // substring of the error text
	}{
		{"epsilon above 1", all, map[string]any{"epsilon": 1.5}, "", "epsilon"},
		{"epsilon negative", all, map[string]any{"epsilon": -0.1}, "", "epsilon"},
		{"delta negative", all, map[string]any{"delta": -1}, "", "negative delta"},
		{"unknown verifier", all, map[string]any{"verifier": "oracle"}, "", "unknown verifier"},
		{"negative timeout_ms", all, map[string]any{"timeout_ms": -5}, "", "timeout_ms"},
		{"unparsable graph_text", single, map[string]any{"graph_text": "v x"}, "", "graph_text"},
		{"unparsable batch member", []string{"/batch"}, map[string]any{"query_texts": []string{"v x"}}, "", "query 0"},
		{"k zero", []string{"/topk", "/topk/bounds"}, map[string]any{"k": 0}, "", "k must be positive"},
		{"k negative", []string{"/topk", "/topk/bounds"}, map[string]any{"k": -2}, "", "k must be positive"},
		{"k on stream", []string{"/query/stream"}, map[string]any{"k": 2}, "", "k is not supported"},
		{"trailing garbage", all, nil, " garbage", "unexpected data after the JSON value"},
		{"trailing bracket", all, nil, "]", "unexpected data after the JSON value"},
		{"second object", all, nil, `{"epsilon": 7}`, "unexpected data after the JSON value"},
	}
	for _, c := range cases {
		for _, path := range c.paths {
			label := path + " " + c.name
			body := env.body(t, path, c.spoil, c.trailing)
			status, out := post(t, env.single+path, body)
			if status != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400 (%s)", label, status, out)
				continue
			}
			var e map[string]any
			if err := json.Unmarshal(out, &e); err != nil {
				t.Errorf("%s: 400 body %q is not one JSON object: %v", label, out, err)
				continue
			}
			if msg, _ := e["error"].(string); !strings.Contains(msg, c.want) {
				t.Errorf("%s: error %q, want it to mention %q", label, msg, c.want)
			}
			if !coordinatorServes[path] {
				continue
			}
			cstatus, cout := post(t, env.coord+path, body)
			if cstatus != status || !bytes.Equal(cout, out) {
				t.Errorf("%s: coordinator answered %d %q, pgserve %d %q", label, cstatus, cout, status, out)
			}
		}
	}

	// Trailing whitespace — the final newline of `curl -d @file` — is not
	// data, and the ε/δ boundary itself (ε exactly 1, δ exactly 0) is valid.
	for _, path := range all {
		for _, c := range []struct {
			spoil    map[string]any
			trailing string
		}{{nil, "\n"}, {nil, " \t\r\n"}, {map[string]any{"epsilon": 1, "delta": 0}, ""}} {
			body := env.body(t, path, c.spoil, c.trailing)
			urls := []string{env.single}
			if coordinatorServes[path] {
				urls = append(urls, env.coord)
			}
			for _, url := range urls {
				if status, out := post(t, url+path, body); status != http.StatusOK {
					t.Errorf("%s%s %q: status %d, want 200 (%s)", url, path, body, status, out)
				}
			}
		}
	}
}
