package graph

import (
	"fmt"
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

// freezeOracle is the full-rebuild reference path: feed the raw rows
// through the builder exactly like core.BuildInvestorGraph does and
// freeze the result.
func freezeOracle(rows []AdjacencyRow) *FrozenBipartite {
	b := NewBipartite(len(rows), len(rows))
	for _, r := range rows {
		for _, right := range r.Rights {
			b.AddEdge(r.Left, right)
		}
	}
	b.SortAdjacency()
	return FreezeBipartite(b)
}

// TestFromRowsMatchesBuilder is the kernel-level property behind the
// delta==refreeze gate: for random raw adjacency rows (duplicate edges,
// shuffled right labels, empty rows), FromRows must produce labels and
// CSR arrays identical to the builder's freeze.
func TestFromRowsMatchesBuilder(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nLeft := 20 + rng.Intn(60)
			nRight := 10 + rng.Intn(40)
			rows := make([]AdjacencyRow, 0, nLeft)
			for i := 0; i < nLeft; i++ {
				row := AdjacencyRow{Left: fmt.Sprintf("inv-%03d", i)}
				// ~15% of rows keep zero edges: the builder never creates
				// those left nodes, so FromRows must skip them too.
				if rng.Intn(7) != 0 {
					for j := rng.Intn(8); j >= 0; j-- {
						row.Rights = append(row.Rights, fmt.Sprintf("co-%03d", rng.Intn(nRight)))
					}
					// Raw crawl rows carry duplicates; both paths must dedup.
					if len(row.Rights) > 1 && rng.Intn(2) == 0 {
						row.Rights = append(row.Rights, row.Rights[0])
					}
				}
				rows = append(rows, row)
			}
			got, err := FromRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			if want := freezeOracle(rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("kernel diverged from builder freeze (%d/%d/%d vs %d/%d/%d nodes/nodes/edges)",
					got.NumLeft(), got.NumRight(), got.NumEdges(), want.NumLeft(), want.NumRight(), want.NumEdges())
			}
		})
	}
}

func TestFromRowsEdgeCases(t *testing.T) {
	// All-empty input freezes to an empty graph.
	fb, err := FromRows([]AdjacencyRow{{Left: "a"}, {Left: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if fb.NumLeft() != 0 || fb.NumRight() != 0 || fb.NumEdges() != 0 {
		t.Fatalf("empty rows froze to %d/%d/%d", fb.NumLeft(), fb.NumRight(), fb.NumEdges())
	}

	// Duplicate or out-of-order left labels are writer bugs, not
	// recoverable input.
	for _, lefts := range [][2]string{{"a", "a"}, {"b", "a"}} {
		_, err = FromRows([]AdjacencyRow{
			{Left: lefts[0], Rights: []string{"x"}},
			{Left: lefts[1], Rights: []string{"y"}},
		})
		if err == nil || !strings.Contains(err.Error(), "not strictly ascending") {
			t.Fatalf("left %v: err = %v", lefts, err)
		}
	}

	// Right nodes number by first appearance in raw order, and duplicate
	// edges collapse.
	fb, err = FromRows([]AdjacencyRow{
		{Left: "a", Rights: []string{"z", "y", "z"}},
		{Left: "b", Rights: []string{"y", "x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"z", "y", "x"} {
		if got := fb.RightLabel(int32(i)); got != want {
			t.Fatalf("right %d = %q, want %q", i, got, want)
		}
	}
	if fb.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4 (duplicate z collapsed)", fb.NumEdges())
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
