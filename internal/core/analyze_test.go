package core

import (
	"context"
	"testing"
)

func analyzeFixture(t *testing.T) *FrozenSnapshot {
	t.Helper()
	companies, err := LoadCompanies(context.Background(), fixStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	investors, err := LoadInvestors(context.Background(), fixStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &FrozenSnapshot{
		Snapshot:  0,
		Companies: companies,
		Investors: investors,
		Graph:     investorGraph(investors),
	}
}

// TestAnalyzeExactMatchesRunCommunities: under the budget's exact regime
// the detector must run on the same filtered graph as the classic path,
// with an identical assignment.
func TestAnalyzeExactMatchesRunCommunities(t *testing.T) {
	fs := analyzeFixture(t)
	res, err := Analyze(context.Background(), fs, 4, 8, 0, Budget{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommunitiesSampled {
		t.Fatal("zero budget must stay exact")
	}
	if res.Companies != len(fs.Companies) || res.Investors != len(fs.Investors) {
		t.Fatalf("entity counts wrong: %d/%d", res.Companies, res.Investors)
	}
	want, err := RunCommunities(fs.Graph, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Communities.MeanSize != want.MeanSize {
		t.Fatalf("mean community size differs: %g vs %g", res.Communities.MeanSize, want.MeanSize)
	}
	g, w := res.Communities.Assignment, want.Assignment
	if g.NumCommunities() != w.NumCommunities() {
		t.Fatalf("community counts differ: %d vs %d", g.NumCommunities(), w.NumCommunities())
	}
	if res.FilteredEdges != want.Filtered.NumEdges() {
		t.Fatalf("FilteredEdges = %d, filtered graph has %d", res.FilteredEdges, want.Filtered.NumEdges())
	}
}

// TestAnalyzeSampledRegime: once the filtered graph exceeds the edge
// limit, detection must run on the degree-capped subgraph, flagged as
// sampled, deterministically.
func TestAnalyzeSampledRegime(t *testing.T) {
	fs := analyzeFixture(t)
	budget := Budget{CommunityEdgeLimit: 1, MaxLeftDegree: 3, Seed: 3}
	res, err := Analyze(context.Background(), fs, 4, 8, 0, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CommunitiesSampled {
		t.Fatal("edge limit 1 must force the sampled regime")
	}
	det := res.Communities.Filtered
	for u := int32(0); int(u) < det.NumLeft(); u++ {
		if det.OutDegree(u) > 3 {
			t.Fatalf("sampled graph left degree %d exceeds cap 3", det.OutDegree(u))
		}
	}
	// Exact stages are unaffected by the budget.
	exact, err := Analyze(context.Background(), fs, 4, 8, 0, Budget{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Investors != exact.Graph.Investors || res.Graph.Edges != exact.Graph.Edges {
		t.Fatal("graph stats must not depend on the community budget")
	}
	if res.Fig3.Mean != exact.Fig3.Mean || res.Fig3.Max != exact.Fig3.Max {
		t.Fatal("Fig3 must not depend on the community budget")
	}
	// Determinism of the sampled run.
	again, err := Analyze(context.Background(), fs, 4, 8, 0, budget)
	if err != nil {
		t.Fatal(err)
	}
	if again.Communities.MeanSize != res.Communities.MeanSize ||
		again.Communities.Assignment.NumCommunities() != res.Communities.Assignment.NumCommunities() {
		t.Fatal("sampled analysis not deterministic")
	}
}

// TestAnalyzeCancel: a canceled context stops between kernels.
func TestAnalyzeCancel(t *testing.T) {
	fs := analyzeFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Analyze(ctx, fs, 4, 8, 0, Budget{}); err == nil {
		t.Fatal("canceled analyze must fail")
	}
}
