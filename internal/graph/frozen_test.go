package graph

import (
	"fmt"
	"math/rand"
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

// referenceFromRows feeds the raw rows edge by edge through the
// reference builder and sorts it: the full-rebuild path FromRows replaced.
func referenceFromRows(rows []AdjacencyRow) *refBipartite {
	b := newRefBipartite()
	for _, r := range rows {
		for _, right := range r.Rights {
			b.AddEdge(r.Left, right)
		}
	}
	b.SortAdjacency()
	return b
}

// TestFromRowsMatchesBuilder is the kernel-level property behind the
// delta==refreeze gate: for random raw adjacency rows (duplicate edges,
// shuffled right labels, empty rows), FromRows must produce labels and
// rows identical to the reference builder's.
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
			requireMatchesReference(t, got, referenceFromRows(rows))
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
