package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
)

// snapDB builds a small indexed database for snapshot tests.
func snapDB(t *testing.T, n int) (*Database, *dataset.DB) {
	t.Helper()
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: n, MinVertices: 5, MaxVertices: 7, Organisms: 3,
		Correlated: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(raw.Graphs, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, raw
}

func snapQueries(t *testing.T, raw *dataset.DB, k int) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	qs := make([]*graph.Graph, k)
	for i := range qs {
		qs[i] = dataset.ExtractQuery(raw.Graphs[i%len(raw.Graphs)].G, 4, rng)
	}
	return qs
}

// roundTrip snapshots db and loads it back.
func roundTrip(t *testing.T, db *Database) *Database {
	t.Helper()
	var buf bytes.Buffer
	if err := db.View().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadDatabase(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	return got
}

// TestSnapshotRoundTripIdentity: the reloaded database must answer queries
// bitwise-identically to the one that wrote the snapshot — same answers,
// same SSP estimates, same pruning counters.
func TestSnapshotRoundTripIdentity(t *testing.T) {
	db, raw := snapDB(t, 10)
	got := roundTrip(t, db)

	if got.Len() != db.Len() {
		t.Fatalf("reloaded %d graphs, want %d", got.Len(), db.Len())
	}
	if got.View().PMI == nil || got.View().PMI.NumFeatures() != db.View().PMI.NumFeatures() {
		t.Fatalf("PMI features: got %v, want %d", got.View().PMI, db.View().PMI.NumFeatures())
	}
	if len(got.View().Features) != len(db.View().Features) {
		t.Fatalf("mined features: got %d, want %d", len(got.View().Features), len(db.View().Features))
	}
	for fi := range db.View().PMI.Entries {
		for gi := range db.View().PMI.Entries[fi] {
			a, b := db.View().PMI.Entries[fi][gi], got.View().PMI.Entries[fi][gi]
			if a != b {
				t.Fatalf("PMI entry (%d,%d) changed: %+v != %+v", fi, gi, b, a)
			}
		}
	}

	for i, q := range snapQueries(t, raw, 4) {
		for _, opt := range []QueryOptions{
			{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: int64(7 + i)},
			{Epsilon: 0.6, Delta: 1, Seed: int64(100 + i)}, // plain SSPBound
			{Epsilon: 0.4, Delta: 1, OptBounds: true, Verifier: VerifierExact, Seed: 3},
		} {
			want, err := db.View().QueryCtx(context.Background(), q, opt)
			if err != nil {
				t.Fatal(err)
			}
			have, err := got.View().QueryCtx(context.Background(), q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Answers, have.Answers) {
				t.Fatalf("query %d: answers %v != %v", i, have.Answers, want.Answers)
			}
			if !reflect.DeepEqual(want.SSP, have.SSP) {
				t.Fatalf("query %d: SSP %v != %v (not bitwise)", i, have.SSP, want.SSP)
			}
			if want.Stats.PrunedByUpper != have.Stats.PrunedByUpper ||
				want.Stats.AcceptedByLower != have.Stats.AcceptedByLower ||
				want.Stats.VerifyCandidates != have.Stats.VerifyCandidates ||
				want.Stats.StructConfirmed != have.Stats.StructConfirmed {
				t.Fatalf("query %d: pruning counters diverged: %+v != %+v", i, have.Stats, want.Stats)
			}
		}
	}
}

// TestSnapshotTopKAndBatch: the extended query modes agree across the
// round-trip too.
func TestSnapshotTopKAndBatch(t *testing.T) {
	db, raw := snapDB(t, 8)
	got := roundTrip(t, db)
	qs := snapQueries(t, raw, 3)

	wantTop, err := db.View().QueryTopKCtx(context.Background(), qs[0], 3, QueryOptions{Delta: 1, OptBounds: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	haveTop, err := got.View().QueryTopKCtx(context.Background(), qs[0], 3, QueryOptions{Delta: 1, OptBounds: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantTop, haveTop) {
		t.Fatalf("topk diverged: %v != %v", haveTop, wantTop)
	}

	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 21, Concurrency: 3}
	wantBatch, err := db.View().QueryBatchCtx(context.Background(), qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	haveBatch, err := got.View().QueryBatchCtx(context.Background(), qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBatch {
		if !reflect.DeepEqual(wantBatch[i].Answers, haveBatch[i].Answers) ||
			!reflect.DeepEqual(wantBatch[i].SSP, haveBatch[i].SSP) {
			t.Fatalf("batch query %d diverged", i)
		}
	}
}

// TestSnapshotIncrementalAddGraph: AddGraph on a reloaded database produces
// the same column as on the original (options survive the round-trip).
func TestSnapshotIncrementalAddGraph(t *testing.T) {
	db, raw := snapDB(t, 8)
	got := roundTrip(t, db)

	extra, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 1, MinVertices: 5, MaxVertices: 6, Organisms: 1,
		Correlated: true, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	pg := extra.Graphs[0]
	wi, _, err := db.AddGraph(pg)
	if err != nil {
		t.Fatal(err)
	}
	hi, _, err := got.AddGraph(pg)
	if err != nil {
		t.Fatal(err)
	}
	if wi != hi {
		t.Fatalf("AddGraph index %d != %d", hi, wi)
	}
	for fi := range db.View().PMI.Entries {
		if db.View().PMI.Entries[fi][wi] != got.View().PMI.Entries[fi][hi] {
			t.Fatalf("incremental PMI column diverged at feature %d: %+v != %+v",
				fi, got.View().PMI.Entries[fi][hi], db.View().PMI.Entries[fi][wi])
		}
	}

	q := snapQueries(t, raw, 1)[0]
	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 13}
	want, err := db.View().QueryCtx(context.Background(), q, opt)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.View().QueryCtx(context.Background(), q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Answers, have.Answers) {
		t.Fatalf("post-AddGraph answers diverged: %v != %v", have.Answers, want.Answers)
	}
}

// TestSnapshotNoPMI: a structure-only database (SkipPMI) snapshots and
// reloads too.
func TestSnapshotNoPMI(t *testing.T) {
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 6, MinVertices: 5, MaxVertices: 6, Organisms: 2,
		Correlated: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultBuildOptions()
	opt.SkipPMI = true
	db, err := NewDatabase(raw.Graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, db)
	if got.View().PMI != nil {
		t.Fatal("reloaded database unexpectedly has a PMI")
	}
	q := snapQueries(t, raw, 1)[0]
	qo := QueryOptions{Epsilon: 0.4, Delta: 1, Seed: 2}
	want, err := db.View().QueryCtx(context.Background(), q, qo)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.View().QueryCtx(context.Background(), q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Answers, have.Answers) || !reflect.DeepEqual(want.SSP, have.SSP) {
		t.Fatalf("structure-only query diverged")
	}
}

// TestSnapshotRejectsGarbage: loading a non-snapshot fails cleanly.
func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := LoadDatabase(bytes.NewReader([]byte("pgraph g0 0\nend\n"))); err == nil {
		t.Fatal("want error for non-snapshot input")
	}
	if _, err := LoadDatabase(bytes.NewReader(nil)); err == nil {
		t.Fatal("want error for empty input")
	}
}
