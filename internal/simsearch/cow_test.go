package simsearch

import (
	"math/rand"
	"slices"
	"testing"

	"probgraph/internal/graph"
)

// snapshotAnswers records one index's full filter behaviour over a query
// workload so a later comparison can prove the index did not change.
func snapshotAnswers(t *testing.T, ix *Index, qs []*queryCase) [][]int {
	t.Helper()
	out := make([][]int, len(qs))
	for i, qc := range qs {
		out[i] = candidates(ix, qc.q, qc.delta, 2)
		if dense := ix.CandidatesDense(qc.q, qc.delta); !slices.Equal(out[i], dense) {
			t.Fatalf("query %d: postings %v != dense %v", i, out[i], dense)
		}
	}
	return out
}

type queryCase struct {
	q     *graph.Graph
	delta int
}

// TestCOWChainLeavesPredecessorsUntouched pins the copy-on-write
// contract: every WithGraph / WithTombstone / WithReplaced / Compacted
// call returns a new Index, and the answers of every earlier link of the
// chain stay bitwise-identical afterwards — a pinned view can keep
// scanning mid-mutation.
func TestCOWChainLeavesPredecessorsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	all := randomDB(rng, 12)
	features := DefaultFeatures(all[:6], 64)

	var qs []*queryCase
	for trial := 0; trial < 8; trial++ {
		qs = append(qs, &queryCase{
			q:     extractSubquery(rng, all[rng.Intn(6)], 2+rng.Intn(3)),
			delta: rng.Intn(3),
		})
	}

	// Small shard size so the chain crosses shard boundaries.
	chain := []*Index{BuildIndexSharded(all[:6], features, 3)}
	baselines := [][][]int{snapshotAnswers(t, chain[0], qs)}
	grow := func(next *Index) {
		chain = append(chain, next)
		baselines = append(baselines, snapshotAnswers(t, next, qs))
	}

	for _, g := range all[6:10] {
		grow(chain[len(chain)-1].WithGraph(g))
	}
	grow(chain[len(chain)-1].WithTombstone(2))
	grow(chain[len(chain)-1].WithReplaced(7, all[10]))
	grow(chain[len(chain)-1].WithTombstone(7))
	grow(chain[len(chain)-1].WithGraph(all[11]))
	grow(chain[len(chain)-1].Compacted())

	// Every link must still answer exactly what it answered when it was
	// the newest index.
	for li, ix := range chain {
		got := snapshotAnswers(t, ix, qs)
		for i := range qs {
			if !slices.Equal(got[i], baselines[li][i]) {
				t.Fatalf("link %d query %d: answers drifted from %v to %v after later mutations",
					li, i, baselines[li][i], got[i])
			}
		}
	}
}

// TestTombstoneEqualsRebuiltWithout: a tombstoned index answers exactly
// like... not quite an index rebuilt without the graph (ids differ) — it
// answers the rebuilt index's candidates mapped back through the identity
// of the surviving slots, and Compacted() then equals the rebuilt index
// slot-for-slot.
func TestTombstoneEqualsRebuiltWithout(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	all := randomDB(rng, 9)
	features := DefaultFeatures(all, 64)
	ix := BuildIndexSharded(all, features, 4)

	removed := []int{1, 4, 8}
	tombed := ix.WithTombstones(removed)
	if got := tombed.Tombstones(); got != len(removed) {
		t.Fatalf("Tombstones() = %d, want %d", got, len(removed))
	}
	if ix.Tombstones() != 0 {
		t.Fatal("tombstoning mutated the predecessor")
	}

	// Survivors in slot order, plus old-slot → new-slot mapping.
	var survivors []*graph.Graph
	remap := make(map[int]int)
	for gi, g := range all {
		if slices.Contains(removed, gi) {
			continue
		}
		remap[gi] = len(survivors)
		survivors = append(survivors, g)
	}
	rebuilt := BuildIndexSharded(survivors, features, 4)
	compacted := tombed.Compacted()

	for trial := 0; trial < 20; trial++ {
		q := extractSubquery(rng, all[rng.Intn(len(all))], 2+rng.Intn(4))
		delta := rng.Intn(3)

		tc := candidates(tombed, q, delta, 2)
		for _, gi := range tc {
			if slices.Contains(removed, gi) {
				t.Fatalf("tombstoned slot %d emitted as candidate", gi)
			}
		}
		if dense := tombed.CandidatesDense(q, delta); !slices.Equal(tc, dense) {
			t.Fatalf("tombstoned postings %v != dense %v", tc, dense)
		}

		// Mapped through remap, the tombstoned candidates are exactly the
		// rebuilt index's.
		mapped := make([]int, len(tc))
		for i, gi := range tc {
			mapped[i] = remap[gi]
		}
		rc := candidates(rebuilt, q, delta, 2)
		if !slices.Equal(mapped, rc) {
			t.Fatalf("tombstoned candidates %v (mapped %v) != rebuilt %v", tc, mapped, rc)
		}

		// Compacted matches the rebuilt index slot-for-slot.
		if cc := candidates(compacted, q, delta, 2); !slices.Equal(cc, rc) {
			t.Fatalf("compacted candidates %v != rebuilt %v", cc, rc)
		}
	}
	cs, ce := compacted.PostingsStats()
	rs, re := rebuilt.PostingsStats()
	if cs != rs || ce != re {
		t.Fatalf("compacted postings (%d shards, %d entries) != rebuilt (%d, %d)", cs, ce, rs, re)
	}
}

// TestWithReplacedEqualsRebuilt: replacing a slot's graph answers exactly
// like an index built from scratch over the post-replacement database, at
// every shard size, and only the owning shard's entry count moves.
func TestWithReplacedEqualsRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	all := randomDB(rng, 10)
	repl := randomDB(rng, 3)
	features := DefaultFeatures(all, 64)
	for _, shardSize := range []int{1, 4, 256} {
		ix := BuildIndexSharded(all, features, shardSize)
		for i, gi := range []int{0, 5, 9} {
			next := ix.WithReplaced(gi, repl[i])
			final := append(slices.Clone(all[:gi]), append([]*graph.Graph{repl[i]}, all[gi+1:]...)...)
			rebuilt := BuildIndexSharded(final, features, shardSize)
			ns, ne := next.PostingsStats()
			rs, re := rebuilt.PostingsStats()
			if ns != rs || ne != re {
				t.Fatalf("shardSize=%d replace %d: postings (%d, %d) != rebuilt (%d, %d)",
					shardSize, gi, ns, ne, rs, re)
			}
			for trial := 0; trial < 10; trial++ {
				q := extractSubquery(rng, final[rng.Intn(len(final))], 2+rng.Intn(3))
				delta := rng.Intn(3)
				a := candidates(next, q, delta, 2)
				b := candidates(rebuilt, q, delta, 2)
				if !slices.Equal(a, b) {
					t.Fatalf("shardSize=%d replace %d: %v != rebuilt %v", shardSize, gi, a, b)
				}
			}
		}
	}
}
