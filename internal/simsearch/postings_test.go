package simsearch

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"probgraph/internal/graph"
	"probgraph/internal/mcs"
)

func sectionScanner(s string) *bufio.Scanner {
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	return sc
}

// edgeGraph builds a graph from "u:lu v:lv" vertex-label pairs per edge,
// e.g. pairs [][2]string{{"a","b"},{"a","b"}} gives two disjoint a–b edges.
func edgeGraph(name string, pairs [][2]string) *graph.Graph {
	b := graph.NewBuilder(name)
	for _, p := range pairs {
		u := b.AddVertex(graph.Label(p[0]))
		v := b.AddVertex(graph.Label(p[1]))
		b.MustAddEdge(u, v, "")
	}
	return b.Build()
}

// singleEdgeFeature is the labeled-edge counting feature lu–lv.
func singleEdgeFeature(lu, lv string) *graph.Graph {
	return edgeGraph("f", [][2]string{{lu, lv}})
}

// TestDeltaBoundaryTable pins the filter's behaviour exactly at the miss
// budget: with unit destruction weights the budget T(δ) equals δ, so a
// graph missing exactly δ feature occurrences sits on the boundary
// (miss == T(δ): keep) and one more miss falls off it (miss == T(δ)+1:
// drop). Verified against both the postings path and the dense oracle.
func TestDeltaBoundaryTable(t *testing.T) {
	// q: two vertex-disjoint a–b edges. The only counting feature with
	// embeddings in q is the a–b edge: cq = 2 and every q-edge carries
	// exactly one embedding, so w(e) = 1 and T(δ) = min(δ, 2).
	q := edgeGraph("q", [][2]string{{"a", "b"}, {"a", "b"}})
	features := []*graph.Graph{
		singleEdgeFeature("a", "b"),
		singleEdgeFeature("c", "c"), // zero embeddings in q on purpose
	}
	dbc := []*graph.Graph{
		edgeGraph("g0", [][2]string{{"a", "b"}}),                         // 1 a–b edge: miss 1
		edgeGraph("g1", [][2]string{{"a", "b"}, {"a", "b"}}),             // 2 a–b edges: miss 0
		edgeGraph("g2", [][2]string{{"c", "c"}}),                         // 0 a–b edges: miss 2
		edgeGraph("g3", [][2]string{{"a", "b"}, {"c", "c"}}),             // miss 1 (c–c is ignored)
		edgeGraph("g4", [][2]string{{"a", "a"}, {"b", "b"}}),             // miss 2: labels, not degree
		edgeGraph("g5", [][2]string{{"a", "b"}, {"a", "b"}, {"a", "b"}}), // surplus: miss 0
	}

	cases := []struct {
		delta int
		want  []int
	}{
		// T(0)=0: only miss==0 graphs pass; g0/g3 (miss 1 == T+1) drop.
		{0, []int{1, 5}},
		// T(1)=1: miss==1 graphs sit exactly on the budget and pass;
		// miss==2 graphs (g2, g4) are one over and drop.
		{1, []int{0, 1, 3, 5}},
		// T(2)=2: every miss≤2 graph passes.
		{2, []int{0, 1, 2, 3, 4, 5}},
		// δ beyond |E(q)| adds no budget (there are only 2 weights to sum).
		{3, []int{0, 1, 2, 3, 4, 5}},
	}
	for _, shardSize := range []int{1, 2, 64} {
		ix := BuildIndexSharded(dbc, features, shardSize)
		for _, c := range cases {
			for _, workers := range []int{1, 4} {
				got := candidates(ix, q, c.delta, workers)
				if !slices.Equal(got, c.want) {
					t.Errorf("shardSize=%d workers=%d delta=%d: candidates %v, want %v",
						shardSize, workers, c.delta, got, c.want)
				}
			}
			if dense := ix.CandidatesDense(q, c.delta); !slices.Equal(dense, c.want) {
				t.Errorf("shardSize=%d delta=%d: dense candidates %v, want %v",
					shardSize, c.delta, dense, c.want)
			}
		}
	}
}

// TestZeroEmbeddingFeaturesAreInert: features the query does not embed must
// not influence the filter in either path — a database graph rich in such
// features is judged exactly as if they were not indexed at all.
func TestZeroEmbeddingFeaturesAreInert(t *testing.T) {
	q := edgeGraph("q", [][2]string{{"a", "b"}})
	with := []*graph.Graph{singleEdgeFeature("a", "b"), singleEdgeFeature("c", "c"), singleEdgeFeature("b", "c")}
	without := []*graph.Graph{singleEdgeFeature("a", "b")}
	dbc := []*graph.Graph{
		edgeGraph("g0", [][2]string{{"c", "c"}, {"b", "c"}, {"c", "c"}}),
		edgeGraph("g1", [][2]string{{"a", "b"}, {"c", "c"}}),
		edgeGraph("g2", [][2]string{{"b", "b"}}),
	}
	for delta := 0; delta <= 2; delta++ {
		a := candidates(BuildIndex(dbc, with), q, delta, 1)
		b := candidates(BuildIndex(dbc, without), q, delta, 1)
		if !slices.Equal(a, b) {
			t.Errorf("delta=%d: with inert features %v, without %v", delta, a, b)
		}
	}
}

// TestEmptyQueryAllCandidates: a query with no edges embeds in every world
// of every graph, so the filter must keep the whole database (and both
// paths must agree on it).
func TestEmptyQueryAllCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dbc := randomDB(rng, 7)
	ix := BuildIndexSharded(dbc, DefaultFeatures(dbc, 64), 2)
	empty := graph.NewBuilder("empty").Build()
	for delta := 0; delta <= 1; delta++ {
		got := candidates(ix, empty, delta, 3)
		if len(got) != len(dbc) {
			t.Fatalf("delta=%d: empty query kept %d/%d graphs", delta, len(got), len(dbc))
		}
		if dense := ix.CandidatesDense(empty, delta); !slices.Equal(got, dense) {
			t.Fatalf("delta=%d: postings %v != dense %v", delta, got, dense)
		}
	}
}

// TestPostingsMatchDense is the identity property: on randomized databases
// and queries, the sharded postings scan returns exactly the dense oracle's
// candidate list, for every shard width and worker count tried.
func TestPostingsMatchDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dbc := randomDB(rng, 3+rng.Intn(10))
		features := DefaultFeatures(dbc, 32+rng.Intn(64))
		q := extractSubquery(rng, dbc[rng.Intn(len(dbc))], 2+rng.Intn(4))
		delta := rng.Intn(4)
		for _, shardSize := range []int{1, 2, 3, 5, 64} {
			ix := BuildIndexSharded(dbc, features, shardSize)
			dense := ix.CandidatesDense(q, delta)
			for _, workers := range []int{1, 2, 8} {
				got := candidates(ix, q, delta, workers)
				if !slices.Equal(got, dense) {
					t.Logf("seed %d shardSize %d workers %d: postings %v != dense %v",
						seed, shardSize, workers, got, dense)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSCqSerialShardedIdentity: the full filter+confirm pipeline returns
// set-identical confirmed candidates and the same filter count at every
// worker count and shard width, and the confirmed set equals the exact
// subgraph-similarity scan.
func TestSCqSerialShardedIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dbc := randomDB(rng, 8)
		features := DefaultFeatures(dbc, 64)
		q := extractSubquery(rng, dbc[rng.Intn(len(dbc))], 3+rng.Intn(3))
		if q.NumEdges() == 0 {
			return true
		}
		delta := rng.Intn(3)
		base := BuildIndexSharded(dbc, features, 3)
		wantConf, wantCount, err := base.SCqCtx(context.Background(), q, delta, 1)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		var wantExact []int
		for gi, g := range dbc {
			if mcs.Similar(q, g, nil, delta) {
				wantExact = append(wantExact, gi)
			}
		}
		if !slices.Equal(wantConf, wantExact) {
			t.Logf("seed %d: confirmed %v != exact %v", seed, wantConf, wantExact)
			return false
		}
		for _, shardSize := range []int{1, 4, 256} {
			ix := BuildIndexSharded(dbc, features, shardSize)
			for _, workers := range []int{1, 2, 4, 8} {
				conf, count, err := ix.SCqCtx(context.Background(), q, delta, workers)
				if err != nil || !slices.Equal(conf, wantConf) || count != wantCount {
					t.Logf("seed %d shardSize %d workers %d: (%v, %d) != (%v, %d)",
						seed, shardSize, workers, conf, count, wantConf, wantCount)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAddGraphExtendsPostings: incrementally grown postings (the
// copy-on-write WithGraph chain) answer exactly like an index built from
// scratch over the final database, including when growth crosses shard
// boundaries — and no link of the chain mutates its predecessor.
func TestAddGraphExtendsPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	all := randomDB(rng, 11)
	features := DefaultFeatures(all, 64)
	for _, shardSize := range []int{1, 3, 256} {
		inc := BuildIndexSharded(all[:4], features, shardSize)
		for _, g := range all[4:] {
			inc = inc.WithGraph(g)
		}
		full := BuildIndexSharded(all, features, shardSize)
		if is, ie := inc.PostingsStats(); true {
			fs, fe := full.PostingsStats()
			if is != fs || ie != fe {
				t.Fatalf("shardSize=%d: incremental postings (%d shards, %d entries) != rebuilt (%d, %d)",
					shardSize, is, ie, fs, fe)
			}
		}
		for trial := 0; trial < 12; trial++ {
			q := extractSubquery(rng, all[rng.Intn(len(all))], 2+rng.Intn(4))
			delta := rng.Intn(3)
			a := candidates(inc, q, delta, 4)
			b := candidates(full, q, delta, 4)
			if !slices.Equal(a, b) {
				t.Fatalf("shardSize=%d: incremental %v != rebuilt %v", shardSize, a, b)
			}
			if dense := full.CandidatesDense(q, delta); !slices.Equal(a, dense) {
				t.Fatalf("shardSize=%d: postings %v != dense %v", shardSize, a, dense)
			}
		}
	}
}

// TestSaveLoadRoundTripsPostings: Save→Load→Save is byte-identical (the v2
// section), the loaded index preserves the shard width, and its rebuilt
// postings answer identically.
func TestSaveLoadRoundTripsPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dbc := randomDB(rng, 9)
	ix := BuildIndexSharded(dbc, DefaultFeatures(dbc, 48), 4)

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	if !strings.HasPrefix(first, fmt.Sprintf("simsearch v2 %d %d 4\n", len(ix.Features), len(dbc))) {
		t.Fatalf("unexpected v2 header: %q", strings.SplitN(first, "\n", 2)[0])
	}
	loaded, err := LoadFromScanner(sectionScanner(first), dbc)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ShardSize() != 4 {
		t.Fatalf("shard size %d after round trip, want 4", loaded.ShardSize())
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatal("Save→Load→Save not byte-identical")
	}
	q := extractSubquery(rng, dbc[0], 3)
	for delta := 0; delta <= 2; delta++ {
		a := candidates(ix, q, delta, 2)
		b := candidates(loaded, q, delta, 2)
		if !slices.Equal(a, b) {
			t.Fatalf("delta=%d: loaded index answers %v, original %v", delta, b, a)
		}
	}
}

// TestLoadV1SectionWithoutPostings: a pre-postings (v1) section — no shard
// width in the header — still loads, gets the default shard width, and
// answers identically to a fresh build.
func TestLoadV1SectionWithoutPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dbc := randomDB(rng, 6)
	ix := BuildIndex(dbc, DefaultFeatures(dbc, 48))

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Rewrite the v2 header to the exact v1 form the previous revision wrote.
	v1 := strings.Replace(buf.String(),
		fmt.Sprintf("simsearch v2 %d %d %d\n", len(ix.Features), len(dbc), DefaultShardSize),
		fmt.Sprintf("simsearch v1 %d %d\n", len(ix.Features), len(dbc)), 1)
	if v1 == buf.String() {
		t.Fatal("header rewrite did not apply")
	}
	loaded, err := LoadFromScanner(sectionScanner(v1), dbc)
	if err != nil {
		t.Fatalf("v1 section failed to load: %v", err)
	}
	if loaded.ShardSize() != DefaultShardSize {
		t.Fatalf("v1 load shard size %d, want default %d", loaded.ShardSize(), DefaultShardSize)
	}
	q := extractSubquery(rng, dbc[0], 3)
	for delta := 0; delta <= 2; delta++ {
		a := candidates(ix, q, delta, 2)
		b := candidates(loaded, q, delta, 2)
		if !slices.Equal(a, b) {
			t.Fatalf("delta=%d: v1-loaded index answers %v, fresh build %v", delta, b, a)
		}
	}
}
