package metrics

import (
	"math"
	"math/rand"
	"testing"

	"crowdscope/internal/graph"
)

// fig8a builds the paper's Figure 8a toy bipartite graph (strong
// community): i1→{c1,c2,c3}, i2→{c1,c2}, i3→{c2,c3}.
func fig8a() (*graph.FrozenBipartite, []int32) {
	return fromRows(fig8aRows...), []int32{0, 1, 2}
}

var fig8aRows = []graph.AdjacencyRow{
	{Left: "i1", Rights: []string{"c1", "c2", "c3"}},
	{Left: "i2", Rights: []string{"c1", "c2"}},
	{Left: "i3", Rights: []string{"c2", "c3"}},
}

// fromRows builds the graph of rows, whose left labels ascend.
func fromRows(rows ...graph.AdjacencyRow) *graph.FrozenBipartite {
	b, err := graph.FromRows(rows)
	if err != nil {
		panic(err)
	}
	return b
}

// fig8b builds Figure 8b (weak community): i1→{c1,c2}, i2→{c3}, i3→{c4},
// with only c... — per the paper: shared sizes (1,0,0), pct = 25%.
func fig8b() (*graph.FrozenBipartite, []int32) {
	return fromRows(
		graph.AdjacencyRow{Left: "i1", Rights: []string{"c1", "c2"}},
		graph.AdjacencyRow{Left: "i2", Rights: []string{"c2", "c3"}},
		graph.AdjacencyRow{Left: "i3", Rights: []string{"c4"}},
	), []int32{0, 1, 2}
}

func TestAvgSharedSizePaperExamples(t *testing.T) {
	// Paper: Figure 8a average shared size = (2+2+1)/3 = 1.67.
	b, members := fig8a()
	got := AvgSharedSize(b, members)
	if math.Abs(got-5.0/3) > 1e-12 {
		t.Errorf("fig 8a avg shared = %g, want 1.67", got)
	}
	// Paper: Figure 8b = (1+0+0)/3 = 0.33.
	b2, members2 := fig8b()
	got2 := AvgSharedSize(b2, members2)
	if math.Abs(got2-1.0/3) > 1e-12 {
		t.Errorf("fig 8b avg shared = %g, want 0.33", got2)
	}
}

func TestSharedSizesCount(t *testing.T) {
	b, members := fig8a()
	sizes := SharedSizes(b, members)
	if len(sizes) != 3 {
		t.Fatalf("pairs = %d", len(sizes))
	}
	var sum float64
	for _, s := range sizes {
		sum += s
	}
	if sum != 5 {
		t.Errorf("total shared = %g", sum)
	}
}

func TestAvgSharedSizeDegenerate(t *testing.T) {
	b, _ := fig8a()
	if AvgSharedSize(b, nil) != 0 {
		t.Error("empty community should score 0")
	}
	if AvgSharedSize(b, []int32{0}) != 0 {
		t.Error("singleton community should score 0")
	}
}

func TestSharedCompanyPctPaperExamples(t *testing.T) {
	// Paper: Figure 8a with K=2 → 3/3 = 100%.
	b, members := fig8a()
	if got := SharedCompanyPct(b, members, 2); got != 100 {
		t.Errorf("fig 8a pct = %g, want 100", got)
	}
	// Paper: Figure 8b with K=2 → 1/4 = 25%.
	b2, members2 := fig8b()
	if got := SharedCompanyPct(b2, members2, 2); got != 25 {
		t.Errorf("fig 8b pct = %g, want 25", got)
	}
	// K=1: every invested company qualifies.
	if got := SharedCompanyPct(b, members, 1); got != 100 {
		t.Errorf("K=1 pct = %g", got)
	}
	// Empty community.
	if got := SharedCompanyPct(b, nil, 2); got != 0 {
		t.Errorf("empty pct = %g", got)
	}
}

func TestGlobalPairSample(t *testing.T) {
	b, _ := fig8a()
	sample, err := GlobalPairSampleParallel(b, 5000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 5000 {
		t.Fatalf("sample size = %d", len(sample))
	}
	// All three investors pairwise share >= 1 company, so every sampled
	// value is >= 1; the mean must be near the exact average 5/3.
	var sum float64
	for _, v := range sample {
		if v < 1 {
			t.Fatalf("sampled shared size %g < 1", v)
		}
		sum += v
	}
	mean := sum / float64(len(sample))
	if math.Abs(mean-5.0/3) > 0.05 {
		t.Errorf("sample mean = %g, want ≈1.67", mean)
	}
	// Tiny graph error path.
	single := fromRows(graph.AdjacencyRow{Left: "i", Rights: []string{"c"}})
	if _, err := GlobalPairSampleParallel(single, 10, 2, 1); err == nil {
		t.Error("expected error with < 2 investors")
	}
}

func TestRandomizedPctBaseline(t *testing.T) {
	// Planted structure: two tight groups. Random groups should score
	// well below the true communities.
	rows := make([]graph.AdjacencyRow, 20)
	for i := range rows {
		rows[i].Left = string(rune('a' + i))
		if i < 10 {
			rows[i].Rights = []string{"A", "B", "C", "D", "E"}
		} else {
			rows[i].Rights = []string{string(rune('A' + 5 + (i-10)%5))}
		}
	}
	b := fromRows(rows...)
	group1 := make([]int32, 10)
	for i := range group1 {
		group1[i] = int32(i)
	}
	truePct := SharedCompanyPct(b, group1, 2)
	rng := rand.New(rand.NewSource(3))
	base := RandomizedPctBaseline(b, []int{10, 10, 10, 10}, 2, rng)
	if truePct <= base {
		t.Errorf("true community pct %.1f should exceed randomized %.1f", truePct, base)
	}
	if got := RandomizedPctBaseline(b, nil, 2, rng); got != 0 {
		t.Errorf("empty baseline = %g", got)
	}
	// Oversized request clamps to population.
	if got := RandomizedPctBaseline(b, []int{999}, 1, rng); got != 100 {
		t.Errorf("K=1 full group pct = %g", got)
	}
}

func TestRankCommunities(t *testing.T) {
	// Three weak investors beside fig8a's strong ones.
	b := fromRows(append(fig8aRows,
		graph.AdjacencyRow{Left: "w1", Rights: []string{"x1"}},
		graph.AdjacencyRow{Left: "w2", Rights: []string{"x2"}},
		graph.AdjacencyRow{Left: "w3", Rights: []string{"x3"}},
	)...)
	strong := []int32{0, 1, 2}
	w1, _ := b.LeftIndex("w1")
	w2, _ := b.LeftIndex("w2")
	w3, _ := b.LeftIndex("w3")
	weak := []int32{w1, w2, w3}
	scores := RankCommunities(b, [][]int32{weak, strong})
	if len(scores) != 2 {
		t.Fatalf("scores = %d", len(scores))
	}
	if scores[0].Index != 1 {
		t.Errorf("strongest should be the paper community, got index %d", scores[0].Index)
	}
	if scores[0].AvgShared <= scores[1].AvgShared {
		t.Errorf("ranking not descending: %g <= %g", scores[0].AvgShared, scores[1].AvgShared)
	}
	if scores[0].Size != 3 || scores[0].SharedPctK2 != 100 {
		t.Errorf("strong score = %+v", scores[0])
	}
	if scores[1].SharedPctK2 != 0 {
		t.Errorf("weak pct = %g", scores[1].SharedPctK2)
	}
}
