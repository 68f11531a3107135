package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/simsearch"
)

const fixtureDir = "../../testdata/snapshots"

// TestLoadV1FixtureSnapshot loads the checked-in snapshot written by the
// previous binary revision (whose simsearch section is the pre-postings v1
// format) and asserts it still answers — with the recorded answers, at
// every worker count, and re-savable in the current format.
func TestLoadV1FixtureSnapshot(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(fixtureDir, "v1_tiny.pgsnap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("simsearch v1 ")) {
		t.Fatal("fixture no longer carries a v1 simsearch section; regenerate it from the revision before the postings index")
	}
	db, err := LoadDatabase(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("loading v1 fixture: %v", err)
	}
	if db.View().Struct == nil {
		t.Fatal("fixture loaded without a structural filter")
	}
	if got := db.View().Struct.ShardSize(); got != simsearch.DefaultShardSize {
		t.Fatalf("v1 section shard size = %d, want default %d", got, simsearch.DefaultShardSize)
	}
	if shards, entries := db.View().Struct.PostingsStats(); shards < 1 || entries < 1 {
		t.Fatalf("postings not rebuilt from v1 counts: %d shards, %d entries", shards, entries)
	}

	qf, err := os.Open(filepath.Join(fixtureDir, "v1_tiny_query.pgraph"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := graph.NewDecoder(qf).Decode()
	qf.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The recorded run: pgsearch -epsilon 0.3 -delta 2 -seed 5 on query 0
	// (per-query seed BatchSeed(5, 0) = 5).
	var want struct {
		Answers []int              `json:"answers"`
		SSP     map[string]float64 `json:"ssp"`
	}
	expRaw, err := os.ReadFile(filepath.Join(fixtureDir, "v1_tiny_expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(expRaw, &want); err != nil {
		t.Fatal(err)
	}
	opt := QueryOptions{Epsilon: 0.3, Delta: 2, OptBounds: true, Seed: BatchSeed(5, 0)}
	var base *Result
	for _, workers := range []int{1, 4} {
		o := opt
		o.Concurrency = workers
		res, err := db.View().QueryCtx(context.Background(), q, o)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Answers, want.Answers) {
			t.Fatalf("workers=%d: answers %v, recorded %v", workers, res.Answers, want.Answers)
		}
		if base == nil {
			base = res
			if len(res.SSP) != len(want.SSP) {
				t.Fatalf("SSP map has %d entries, recorded %d", len(res.SSP), len(want.SSP))
			}
			for gi, ssp := range res.SSP {
				if w := want.SSP[strconv.Itoa(gi)]; w != ssp {
					t.Fatalf("graph %d: SSP %v, recorded %v", gi, ssp, w)
				}
			}
		} else if len(res.SSP) != len(base.SSP) {
			t.Fatalf("workers=%d: SSP map size diverged", workers)
		}
		for gi, ssp := range res.SSP {
			if ssp != base.SSP[gi] {
				t.Fatalf("workers=%d graph %d: SSP %v != serial %v", workers, gi, ssp, base.SSP[gi])
			}
		}
	}

	// Re-saving writes the current format, which must round-trip bitwise.
	var first bytes.Buffer
	if err := db.View().Save(&first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(first.Bytes(), []byte("simsearch v2 ")) {
		t.Fatal("re-save did not upgrade the simsearch section to v2")
	}
	db2, err := LoadDatabase(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := db2.View().Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("current-format snapshot not byte-stable across a round trip")
	}
}

// TestLoadV2FixtureSnapshot loads the checked-in snapshot written by the
// revision before generations existed (header "pgsnap v1", simsearch
// section already v2) and asserts it still answers with the recorded
// answers at every worker count, restores at generation 1 with no
// tombstones, and re-saves in the current byte-stable v3 format.
func TestLoadV2FixtureSnapshot(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(fixtureDir, "v2_tiny.pgsnap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("pgsnap v1\n")) || !bytes.Contains(raw, []byte("simsearch v2 ")) {
		t.Fatal("fixture is not a v2-era snapshot; regenerate it from the revision before generations")
	}
	db, err := LoadDatabase(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("loading v2 fixture: %v", err)
	}
	if db.View().Generation != 1 || db.View().Tombstones() != 0 {
		t.Fatalf("v2 fixture restored at generation %d with %d tombstones, want 1 and 0",
			db.View().Generation, db.View().Tombstones())
	}

	q := fixtureQuery(t, "v2_tiny_query.pgraph")
	want := fixtureExpected(t, "v2_tiny_expected.json")
	opt := QueryOptions{Epsilon: 0.3, Delta: 2, OptBounds: true, Seed: BatchSeed(5, 0)}
	for _, workers := range []int{1, 4} {
		o := opt
		o.Concurrency = workers
		res, err := db.View().QueryCtx(context.Background(), q, o)
		if err != nil {
			t.Fatal(err)
		}
		assertRecorded(t, res, want, workers)
	}

	var first bytes.Buffer
	if err := db.View().Save(&first); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(first.Bytes(), []byte(SnapshotVersion+"\n")) {
		t.Fatalf("re-save did not upgrade the snapshot header to %q", SnapshotVersion)
	}
	db2, err := LoadDatabase(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := db2.View().Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("v3 snapshot not byte-stable across a round trip")
	}
}

// TestMutateFixtureSaveV3Replay is the back-compat acceptance check in
// full: load the old-format fixtures, mutate (add + remove), save — the
// result must be a v3 snapshot carrying generation and tombstones that
// round-trips byte-stably — reload, and replay the recorded query: the
// surviving graphs must answer exactly as recorded (slots are stable
// under tombstoning), with the removed slot filtered out.
func TestMutateFixtureSaveV3Replay(t *testing.T) {
	for _, fixture := range []string{"v1_tiny", "v2_tiny"} {
		raw, err := os.ReadFile(filepath.Join(fixtureDir, fixture+".pgsnap"))
		if err != nil {
			t.Fatal(err)
		}
		db, err := LoadDatabase(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		q := fixtureQuery(t, fixture+"_query.pgraph")
		want := fixtureExpected(t, fixture+"_expected.json")
		if len(want.Answers) == 0 {
			t.Fatalf("%s: recorded run has no answers; fixture unusable for removal replay", fixture)
		}
		victim := want.Answers[0]

		// Mutate: insert a copy of slot 0's graph, tombstone a recorded
		// answer.
		if _, _, err := db.AddGraph(db.View().Graphs[0]); err != nil {
			t.Fatalf("%s: add: %v", fixture, err)
		}
		if _, err := db.RemoveGraph(victim); err != nil {
			t.Fatalf("%s: remove: %v", fixture, err)
		}

		var v3 bytes.Buffer
		if err := db.View().Save(&v3); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(v3.Bytes(), []byte(SnapshotVersion+"\n")) {
			t.Fatalf("%s: mutated save is not a v3 snapshot", fixture)
		}
		if !bytes.Contains(v3.Bytes(), []byte(fmt.Sprintf("generation 3 1\ntombs %d\n", victim))) {
			t.Fatalf("%s: v3 snapshot lacks the generation/tombstone section", fixture)
		}

		reloaded, err := LoadDatabase(bytes.NewReader(v3.Bytes()))
		if err != nil {
			t.Fatalf("%s: reloading v3: %v", fixture, err)
		}
		if reloaded.View().Generation != 3 || reloaded.View().Tombstones() != 1 {
			t.Fatalf("%s: reloaded gen=%d tombs=%d, want 3 and 1",
				fixture, reloaded.View().Generation, reloaded.View().Tombstones())
		}
		var again bytes.Buffer
		if err := reloaded.View().Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v3.Bytes(), again.Bytes()) {
			t.Fatalf("%s: v3 snapshot with tombstones not byte-stable", fixture)
		}

		// Replay on the original slots: recorded answers minus the
		// tombstoned one, SSP bitwise for every surviving recorded
		// candidate. The inserted graph occupies a fresh slot (>= the
		// original length) with no recorded estimate — it is ignored.
		res, err := reloaded.View().QueryCtx(context.Background(), q, QueryOptions{Epsilon: 0.3, Delta: 2, OptBounds: true, Seed: BatchSeed(5, 0)})
		if err != nil {
			t.Fatal(err)
		}
		originalLen := reloaded.Len() - 1
		var gotOriginal []int
		for _, gi := range res.Answers {
			if gi < originalLen {
				gotOriginal = append(gotOriginal, gi)
			}
		}
		wantAnswers := make([]int, 0, len(want.Answers)-1)
		for _, gi := range want.Answers {
			if gi != victim {
				wantAnswers = append(wantAnswers, gi)
			}
		}
		if !slices.Equal(gotOriginal, wantAnswers) {
			t.Fatalf("%s: replay answers %v, want recorded-minus-victim %v", fixture, gotOriginal, wantAnswers)
		}
		for gi, ssp := range res.SSP {
			if gi >= originalLen {
				continue // the inserted copy has no recorded estimate
			}
			if w, ok := want.SSP[strconv.Itoa(gi)]; ok && w != ssp {
				t.Fatalf("%s: replay SSP[%d] = %v, recorded %v", fixture, gi, ssp, w)
			}
		}
	}
}

// fixtureQuery loads a recorded query graph.
func fixtureQuery(t *testing.T, name string) *graph.Graph {
	t.Helper()
	qf, err := os.Open(filepath.Join(fixtureDir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	q, err := graph.NewDecoder(qf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// recordedRun is the shape of the *_expected.json fixtures.
type recordedRun struct {
	Answers []int              `json:"answers"`
	SSP     map[string]float64 `json:"ssp"`
}

// fixtureExpected loads a recorded answer set.
func fixtureExpected(t *testing.T, name string) recordedRun {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(fixtureDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var want recordedRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// assertRecorded compares one run against a recorded one, bitwise.
func assertRecorded(t *testing.T, res *Result, want recordedRun, workers int) {
	t.Helper()
	if !slices.Equal(res.Answers, want.Answers) {
		t.Fatalf("workers=%d: answers %v, recorded %v", workers, res.Answers, want.Answers)
	}
	if len(res.SSP) != len(want.SSP) {
		t.Fatalf("workers=%d: SSP map has %d entries, recorded %d", workers, len(res.SSP), len(want.SSP))
	}
	for gi, ssp := range res.SSP {
		if w := want.SSP[strconv.Itoa(gi)]; w != ssp {
			t.Fatalf("workers=%d graph %d: SSP %v, recorded %v", workers, gi, ssp, w)
		}
	}
}
