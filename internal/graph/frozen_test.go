package graph

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestNewFrozenBipartiteValidates covers the three consistency checks a
// decoded artifact relies on: each CSR's row count must match its label
// table, and both directions must carry the same number of edges.
func TestNewFrozenBipartiteValidates(t *testing.T) {
	left, right := []string{"i1", "i2"}, []string{"c1"}
	fwd := &CSR{Offsets: []int64{0, 1, 1}, Targets: []int32{0}}
	rev := &CSR{Offsets: []int64{0, 1}, Targets: []int32{0}}
	if _, err := NewFrozenBipartite(left, right, fwd, rev); err != nil {
		t.Fatalf("consistent arrays rejected: %v", err)
	}
	cases := []struct {
		name     string
		fwd, rev *CSR
		want     string
	}{
		{"left count", &CSR{Offsets: []int64{0, 1}, Targets: []int32{0}}, rev, "left counts"},
		{"right count", fwd, &CSR{Offsets: []int64{0, 0, 1}, Targets: []int32{0}}, "right counts"},
		{"edge count", fwd, &CSR{Offsets: []int64{0, 2}, Targets: []int32{0, 1}}, "edge counts"},
	}
	for _, c := range cases {
		_, err := NewFrozenBipartite(left, right, c.fwd, c.rev)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestFrozenBipartiteMatchesBuilder(t *testing.T) {
	b := NewBipartite(8, 32)
	edges := [][2]string{
		{"i1", "c1"}, {"i1", "c2"}, {"i1", "c3"},
		{"i2", "c2"}, {"i2", "c3"},
		{"i3", "c1"}, {"i3", "c4"},
		{"i4", "c4"},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	b.SortAdjacency()
	f := FreezeBipartite(b)
	if f.NumLeft() != b.NumLeft() || f.NumRight() != b.NumRight() || f.NumEdges() != b.NumEdges() {
		t.Fatal("sizes differ")
	}
	for _, e := range edges {
		if !f.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v", e)
		}
	}
	if f.HasEdge("i4", "c1") || f.HasEdge("ghost", "c1") || f.HasEdge("i1", "ghost") {
		t.Fatal("HasEdge invented an edge")
	}
	for u := int32(0); int(u) < b.NumLeft(); u++ {
		if f.LeftLabel(u) != b.LeftLabel(u) || f.OutDegree(u) != b.OutDegree(u) {
			t.Fatalf("left node %d differs", u)
		}
	}
	for v := int32(0); int(v) < b.NumRight(); v++ {
		if f.RightLabel(v) != b.RightLabel(v) || f.InDegree(v) != b.InDegree(v) {
			t.Fatalf("right node %d differs", v)
		}
	}
	bIdx, bOK := b.LeftIndex("i3")
	if idx, ok := f.LeftIndex("i3"); !ok || !bOK || idx != bIdx {
		t.Fatalf("LeftIndex(i3) = %d,%v (builder %d,%v)", idx, ok, bIdx, bOK)
	}
	if idx, ok := f.RightIndex("c4"); !ok || idx < 0 {
		t.Fatalf("RightIndex(c4) = %d,%v", idx, ok)
	}
}

// TestFilterAndProjectFromFrozen checks that derived graphs built off a
// frozen view equal the ones built off the mutable builder: same
// filtering, same projection.
func TestFilterAndProjectFromFrozen(t *testing.T) {
	b := NewBipartite(16, 64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		b.AddEdge("inv-"+itoa(rng.Intn(12)), "co-"+itoa(rng.Intn(20)))
	}
	b.SortAdjacency()
	f := FreezeBipartite(b)

	fb := FilterLeftMinDegree(b, 2)
	ff := FilterLeftMinDegree(f, 2)
	if fb.NumLeft() != ff.NumLeft() || fb.NumRight() != ff.NumRight() || fb.NumEdges() != ff.NumEdges() {
		t.Fatal("filtered sizes differ")
	}
	for u := int32(0); int(u) < fb.NumLeft(); u++ {
		if fb.LeftLabel(u) != ff.LeftLabel(u) || !reflect.DeepEqual(fb.Fwd(u), ff.Fwd(u)) {
			t.Fatalf("filtered row %d differs", u)
		}
	}
	if !reflect.DeepEqual(ProjectLeft(b, 1), ProjectLeft(f, 1)) {
		t.Fatal("projections differ")
	}
}
