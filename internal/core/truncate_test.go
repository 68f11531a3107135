package core

import (
	"context"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// TestVerifyTruncatedCounted runs a query whose one candidate has more
// than verify.Options.MaxClauses (512) embeddings — 2-edge paths in K12,
// 660 of them — and checks that Stats reports the truncated verification.
func TestVerifyTruncatedCounted(t *testing.T) {
	b := graph.NewBuilder("k12")
	for i := 0; i < 12; i++ {
		b.AddVertex("a")
	}
	probs := map[graph.EdgeID]float64{}
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			probs[b.MustAddEdge(graph.VertexID(i), graph.VertexID(j), "")] = 0.3
		}
	}
	pg, err := prob.NewIndependent(b.Build(), probs)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultBuildOptions()
	opt.SkipPMI = true
	opt.Feature.MaxL = 2
	db, err := NewDatabase([]*prob.PGraph{pg}, opt)
	if err != nil {
		t.Fatal(err)
	}
	qb := graph.NewBuilder("path")
	v0, v1, v2 := qb.AddVertex("a"), qb.AddVertex("a"), qb.AddVertex("a")
	qb.MustAddEdge(v0, v1, "")
	qb.MustAddEdge(v1, v2, "")
	q := qb.Build()

	qo := QueryOptions{Epsilon: 0.5, MaxClausesPerRQ: 1000, Seed: 3}
	qo.Verify.N = 100
	res, err := db.View().QueryCtx(context.Background(), q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VerifyCandidates != 1 || res.Stats.VerifyTruncated != 1 {
		t.Fatalf("stats %+v: want 1 verified, 1 truncated", res.Stats)
	}
	qo.Verify.MaxClauses = 1000
	res, err = db.View().QueryCtx(context.Background(), q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VerifyCandidates != 1 || res.Stats.VerifyTruncated != 0 {
		t.Fatalf("stats %+v with the cap above the clause count: want 1 verified, 0 truncated", res.Stats)
	}
}
