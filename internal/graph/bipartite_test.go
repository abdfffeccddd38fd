package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperExample builds the Figure 8a "strong community" toy graph:
// 3 investors, 3 companies, investor i1 -> {c1,c2,c3}, i2 -> {c1,c2},
// i3 -> {c2,c3}.
func paperExampleStrong() *Bipartite {
	b := NewBipartite(3, 3)
	b.AddEdge("i1", "c1")
	b.AddEdge("i1", "c2")
	b.AddEdge("i1", "c3")
	b.AddEdge("i2", "c1")
	b.AddEdge("i2", "c2")
	b.AddEdge("i3", "c2")
	b.AddEdge("i3", "c3")
	b.SortAdjacency()
	return b
}

func TestBipartiteBasics(t *testing.T) {
	b := paperExampleStrong()
	if b.NumLeft() != 3 || b.NumRight() != 3 || b.NumEdges() != 7 {
		t.Fatalf("L=%d R=%d E=%d", b.NumLeft(), b.NumRight(), b.NumEdges())
	}
	if b.AddEdge("i1", "c1") {
		t.Fatal("duplicate edge added")
	}
	if !b.HasEdge("i1", "c1") || b.HasEdge("i3", "c1") {
		t.Fatal("HasEdge wrong")
	}
	if b.HasEdge("zz", "c1") || b.HasEdge("i1", "zz") {
		t.Fatal("HasEdge should be false for unknown labels")
	}
	u, ok := b.LeftIndex("i2")
	if !ok || b.LeftLabel(u) != "i2" {
		t.Fatal("left index round trip")
	}
	v, ok := b.RightIndex("c3")
	if !ok || b.RightLabel(v) != "c3" {
		t.Fatal("right index round trip")
	}
	if b.OutDegree(u) != 2 {
		t.Errorf("i2 out-degree = %d", b.OutDegree(u))
	}
	if b.InDegree(v) != 2 {
		t.Errorf("c3 in-degree = %d", b.InDegree(v))
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedRightCountPaperToyExamples(t *testing.T) {
	// Figure 8a: shared sizes are (i1,i2)=2, (i1,i3)=2, (i2,i3)=1;
	// average (2+2+1)/3 = 1.67 per the paper.
	b := paperExampleStrong()
	idx := func(s string) int32 { i, _ := b.LeftIndex(s); return i }
	cases := []struct {
		a, c string
		want int
	}{
		{"i1", "i2", 2},
		{"i1", "i3", 2},
		{"i2", "i3", 1},
	}
	for _, c := range cases {
		if got := SharedRightCount(b, idx(c.a), idx(c.c)); got != c.want {
			t.Errorf("shared(%s,%s) = %d, want %d", c.a, c.c, got, c.want)
		}
	}
}

func TestFilterLeftMinDegree(t *testing.T) {
	b := paperExampleStrong()
	f := FilterLeftMinDegree(b, 3)
	if f.NumLeft() != 1 {
		t.Fatalf("filtered left = %d, want 1 (only i1 has degree 3)", f.NumLeft())
	}
	if _, ok := f.LeftIndex("i1"); !ok {
		t.Fatal("i1 missing after filter")
	}
	if f.NumEdges() != 3 || f.NumRight() != 3 {
		t.Fatalf("filtered E=%d R=%d", f.NumEdges(), f.NumRight())
	}
	// min < 1 keeps everything, including degree-0 nodes? Degree-0 left
	// nodes have no edges so they are dropped by construction; assert the
	// edge set is preserved.
	all := FilterLeftMinDegree(b, 0)
	if all.NumEdges() != b.NumEdges() {
		t.Fatalf("filter(0) lost edges: %d vs %d", all.NumEdges(), b.NumEdges())
	}
}

// Property: for random bipartite graphs, the sum of left out-degrees, the
// sum of right in-degrees, and NumEdges agree; Validate passes.
func TestBipartiteDegreeSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBipartite(10, 10)
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			b.AddEdge(fmt.Sprint("i", rng.Intn(10)), fmt.Sprint("c", rng.Intn(10)))
		}
		var outSum, inSum int
		for u := int32(0); int(u) < b.NumLeft(); u++ {
			outSum += b.OutDegree(u)
		}
		for v := int32(0); int(v) < b.NumRight(); v++ {
			inSum += b.InDegree(v)
		}
		return outSum == b.NumEdges() && inSum == b.NumEdges() && b.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SharedRightCount is symmetric and bounded by min degree.
func TestSharedRightCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		b := NewBipartite(8, 12)
		for i := 0; i < 60; i++ {
			b.AddEdge(fmt.Sprint("i", rng.Intn(8)), fmt.Sprint("c", rng.Intn(12)))
		}
		b.SortAdjacency()
		for a := int32(0); int(a) < b.NumLeft(); a++ {
			for c := a + 1; int(c) < b.NumLeft(); c++ {
				s1 := SharedRightCount(b, a, c)
				s2 := SharedRightCount(b, c, a)
				if s1 != s2 {
					t.Fatalf("asymmetric shared count: %d vs %d", s1, s2)
				}
				min := b.OutDegree(a)
				if d := b.OutDegree(c); d < min {
					min = d
				}
				if s1 > min {
					t.Fatalf("shared %d exceeds min degree %d", s1, min)
				}
			}
		}
	}
}
