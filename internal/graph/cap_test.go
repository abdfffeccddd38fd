package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func capFixture(t *testing.T) *FrozenBipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	b := newRefBipartite()
	for u := 0; u < 40; u++ {
		deg := 1 + rng.Intn(20)
		for e := 0; e < deg; e++ {
			b.AddEdge(fmt.Sprintf("u%d", u), fmt.Sprintf("s%d", rng.Intn(60)))
		}
	}
	return b.frozen()
}

// rowLabels returns left node u's right-neighbour labels.
func rowLabels(b *FrozenBipartite, u int32) []string {
	var out []string
	for _, r := range b.Fwd(u) {
		out = append(out, b.RightLabel(r))
	}
	return out
}

func TestCapLeftDegree(t *testing.T) {
	b := capFixture(t)
	capped := CapLeftDegree(b, 5, 7)

	for u := int32(0); int(u) < capped.NumLeft(); u++ {
		if capped.OutDegree(u) > 5 {
			t.Fatalf("left %s keeps %d edges, cap is 5", capped.LeftLabel(u), capped.OutDegree(u))
		}
		// Every kept edge must exist in the original, and light nodes
		// keep their full row.
		orig, ok := b.LeftIndex(capped.LeftLabel(u))
		if !ok {
			t.Fatalf("capped graph invented left node %s", capped.LeftLabel(u))
		}
		if b.OutDegree(orig) <= 5 && capped.OutDegree(u) != b.OutDegree(orig) {
			t.Fatalf("light node %s lost edges: %d -> %d", capped.LeftLabel(u), b.OutDegree(orig), capped.OutDegree(u))
		}
		origRow := rowLabels(b, orig)
		for _, label := range rowLabels(capped, u) {
			if !slices.Contains(origRow, label) {
				t.Fatalf("capped graph invented edge %s->%s", capped.LeftLabel(u), label)
			}
		}
	}
}

func TestCapLeftDegreeDeterministic(t *testing.T) {
	b := capFixture(t)
	a1 := CapLeftDegree(b, 4, 11)
	a2 := CapLeftDegree(b, 4, 11)
	if a1.NumEdges() != a2.NumEdges() {
		t.Fatalf("edge counts differ across runs: %d vs %d", a1.NumEdges(), a2.NumEdges())
	}
	for u := int32(0); int(u) < a1.NumLeft(); u++ {
		if !slices.Equal(rowLabels(a1, u), rowLabels(a2, u)) {
			t.Fatalf("row %d differs", u)
		}
	}
	// A different seed picks a different sample for at least one heavy row
	// (overwhelmingly likely at these sizes).
	a3 := CapLeftDegree(b, 4, 12)
	same := true
	for u := int32(0); int(u) < a1.NumLeft() && same; u++ {
		same = slices.Equal(rowLabels(a1, u), rowLabels(a3, u))
	}
	if same {
		t.Fatal("seed change produced an identical sample (sampling not seeded?)")
	}
}
