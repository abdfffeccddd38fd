package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperExampleStrong builds the Figure 8a "strong community" toy graph:
// 3 investors, 3 companies, investor i1 -> {c1,c2,c3}, i2 -> {c1,c2},
// i3 -> {c2,c3}.
func paperExampleStrong() *FrozenBipartite {
	b, err := FromRows([]AdjacencyRow{
		{Left: "i1", Rights: []string{"c1", "c2", "c3"}},
		{Left: "i2", Rights: []string{"c1", "c2"}},
		{Left: "i3", Rights: []string{"c2", "c3"}},
	})
	if err != nil {
		panic(err)
	}
	return b
}

func TestBipartiteBasics(t *testing.T) {
	b := paperExampleStrong()
	if b.NumLeft() != 3 || b.NumRight() != 3 || b.NumEdges() != 7 {
		t.Fatalf("L=%d R=%d E=%d", b.NumLeft(), b.NumRight(), b.NumEdges())
	}
	u, ok := b.LeftIndex("i2")
	if !ok || b.LeftLabel(u) != "i2" {
		t.Fatal("left index round trip")
	}
	if _, ok := b.LeftIndex("zz"); ok {
		t.Fatal("LeftIndex resolved an unknown label")
	}
	if b.RightLabel(2) != "c3" {
		t.Fatalf("right 2 = %q, want c3 (first-appearance numbering)", b.RightLabel(2))
	}
	if b.OutDegree(u) != 2 {
		t.Errorf("i2 out-degree = %d", b.OutDegree(u))
	}
	if b.InDegree(2) != 2 {
		t.Errorf("c3 in-degree = %d", b.InDegree(2))
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
	// min < 1 keeps every edge; a left node without edges is dropped.
	all := FilterLeftMinDegree(b, 0)
	if all.NumEdges() != b.NumEdges() {
		t.Fatalf("filter(0) lost edges: %d vs %d", all.NumEdges(), b.NumEdges())
	}
	isolated := FromIndexRows([]string{"a", "b"}, []string{"x"}, [][]int32{{0}, nil})
	if f := FilterLeftMinDegree(isolated, 0); f.NumLeft() != 1 || f.LeftLabel(0) != "a" {
		t.Fatalf("filter(0) kept %d left nodes, want only a", f.NumLeft())
	}
}

// Property: for random bipartite graphs, the sum of left out-degrees, the
// sum of right in-degrees, and NumEdges agree, and every edge of a
// forward row appears in its right node's reverse row.
func TestBipartiteDegreeSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]int32, 10)
		for i := rng.Intn(100); i > 0; i-- {
			u := rng.Intn(10)
			rows[u] = append(rows[u], int32(rng.Intn(10)))
		}
		labels := make([]string, 10)
		for i := range labels {
			labels[i] = fmt.Sprint(i)
		}
		b := FromIndexRows(labels, labels, rows)
		var outSum, inSum int
		for u := int32(0); int(u) < b.NumLeft(); u++ {
			outSum += b.OutDegree(u)
			for _, v := range b.Fwd(u) {
				found := false
				for _, w := range b.Rev(v) {
					found = found || w == u
				}
				if !found {
					return false
				}
			}
		}
		for v := int32(0); int(v) < b.NumRight(); v++ {
			inSum += b.InDegree(v)
		}
		return outSum == b.NumEdges() && inSum == b.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SharedRightCount is symmetric and bounded by min degree.
func TestSharedRightCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		b := newRefBipartite()
		for i := 0; i < 60; i++ {
			b.AddEdge(fmt.Sprint("i", rng.Intn(8)), fmt.Sprint("c", rng.Intn(12)))
		}
		f := b.frozen()
		for a := int32(0); int(a) < f.NumLeft(); a++ {
			for c := a + 1; int(c) < f.NumLeft(); c++ {
				s1 := SharedRightCount(f, a, c)
				s2 := SharedRightCount(f, c, a)
				if s1 != s2 {
					t.Fatalf("asymmetric shared count: %d vs %d", s1, s2)
				}
				min := f.OutDegree(a)
				if d := f.OutDegree(c); d < min {
					min = d
				}
				if s1 > min {
					t.Fatalf("shared %d exceeds min degree %d", s1, min)
				}
			}
		}
	}
}
