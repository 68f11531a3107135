package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"probgraph/internal/cluster"
	"probgraph/internal/core"
	"probgraph/internal/server"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return l, nil
}

// close stops the server, drops its connections and waits for Serve to
// return.
func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// fleet is a pgproxy coordinator over range-partitioned pgserve shards,
// each opened from its own SaveRange v4 image.
type fleet struct {
	shards []*listener
	proxy  *listener
	open   time.Duration // Σ core.OpenSnapshot over the shard images
}

func (f *fleet) close() {
	if f.proxy != nil {
		f.proxy.close()
	}
	for _, s := range f.shards {
		s.close()
	}
}

// writeShardImages saves db as n contiguous range partitions in the
// binary snapshot format under dir and returns their paths.
func writeShardImages(db *core.Database, n int, dir string) ([]string, error) {
	ranges, err := core.PartitionRanges(db.Len(), n)
	if err != nil {
		return nil, err
	}
	var paths []string
	for i, r := range ranges {
		p := filepath.Join(dir, fmt.Sprintf("shard%d.pgsnap", i))
		if err := db.SaveRangeFile(p, r[0], r[1], core.SnapshotBinary); err != nil {
			return nil, fmt.Errorf("saving shard %d: %w", i, err)
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// startFleet opens the shard images, serves each shard and the
// coordinator on loopback, and returns once the coordinator reports the
// whole fleet ready.
func startFleet(ctx context.Context, hc *http.Client, images []string) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var shards []cluster.Shard
	for i, path := range images {
		t := time.Now()
		db, err := core.OpenSnapshot(path)
		if err != nil {
			return nil, fmt.Errorf("opening %s: %w", path, err)
		}
		f.open += time.Since(t)
		l, err := listen(server.New(db, server.Options{}).Handler())
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, l)
		shards = append(shards, cluster.Shard{Name: fmt.Sprintf("shard%d", i), URL: l.url})
	}
	coord, err := cluster.New(cluster.Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	if f.proxy, err = listen(coord.Handler()); err != nil {
		return nil, err
	}
	if err := waitReady(ctx, hc, f.proxy.url); err != nil {
		return nil, err
	}
	return f, nil
}

// waitReady polls /readyz until it answers 200, for at most ten seconds.
func waitReady(ctx context.Context, hc *http.Client, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s to become ready: %w", base, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// newClient returns an HTTP client holding at most conns connections per
// host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

func closeClient(hc *http.Client) {
	hc.Transport.(*http.Transport).CloseIdleConnections()
}

// errStatus is a non-2xx answer: a failed or refused operation.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// call sends one request and reads the whole response body. The returned
// duration covers sending the request through reading the last byte.
func call(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil {
		return nil, took, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, took, &errStatus{code: resp.StatusCode, body: string(bytes.TrimSpace(out))}
	}
	return out, took, nil
}

// decode unmarshals a response body strictly.
func decode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	return nil
}

// scratchDir makes a private directory for this process's snapshot
// images under the checkout's build directory.
func scratchDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

var errMismatch = errors.New("response differs from the in-process reference")
