package community

import (
	"fmt"
	"math"
	"testing"

	"crowdscope/internal/graph"
)

// requireBlocks fails unless both sides of b span at least three sweep
// blocks and end in a partial one, so that a multi-worker fit really
// hands blocks between workers and merges a short tail.
func requireBlocks(t *testing.T, b *graph.FrozenBipartite) {
	t.Helper()
	for _, n := range []int{b.NumLeft(), b.NumRight()} {
		if numBlocks(n) < 3 || n%sweepBlock == 0 {
			t.Fatalf("graph side of %d rows: want >= 3 sweep blocks of %d with a partial last one", n, sweepBlock)
		}
	}
}

// TestCoDAParallelEquivalence asserts the parallelized block-coordinate
// sweeps are bit-identical to the serial path: the full membership
// matrices F and H (and hence the likelihood trajectory that drives
// convergence) must match exactly between workers=1 and workers 2 and 4.
func TestCoDAParallelEquivalence(t *testing.T) {
	b, _ := plantedGraph(4, 40, 40, 0.5, 0.1, 6) // 160 × 160
	requireBlocks(t, b)
	fit := func(workers int) ([][]float64, [][]float64) {
		c := &CoDA{K: 4, Seed: 11, Workers: workers}
		F, H, err := c.fit(b)
		if err != nil {
			t.Fatal(err)
		}
		return F, H
	}
	F1, H1 := fit(1)
	compare := func(name string, a, b [][]float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: row count %d != %d", name, len(a), len(b))
		}
		for i := range a {
			for k := range a[i] {
				if math.Float64bits(a[i][k]) != math.Float64bits(b[i][k]) {
					t.Fatalf("%s[%d][%d]: %v != %v", name, i, k, a[i][k], b[i][k])
				}
			}
		}
	}
	for _, workers := range []int{2, 4} {
		F, H := fit(workers)
		compare(fmt.Sprintf("workers=%d F", workers), F1, F)
		compare(fmt.Sprintf("workers=%d H", workers), H1, H)
	}
}

// TestCoDADetectWorkerInvariant checks the full Detect pipeline returns
// identical community assignments for every worker count.
func TestCoDADetectWorkerInvariant(t *testing.T) {
	b, _ := plantedGraph(3, 50, 45, 0.85, 0.05, 8) // 150 × 135
	requireBlocks(t, b)
	var base *Assignment
	for _, workers := range []int{1, 2, 4} {
		a, err := (&CoDA{K: 3, Seed: 5, Workers: workers}).Detect(b)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			if a.NumCommunities() == 0 {
				t.Fatal("workers=1 found no communities")
			}
			base = a
			continue
		}
		if a.NumCommunities() != base.NumCommunities() {
			t.Fatalf("workers=%d: %d communities, want %d", workers, a.NumCommunities(), base.NumCommunities())
		}
		for k := range base.Investors {
			got := fmt.Sprint(a.Investors[k], a.Companies[k])
			want := fmt.Sprint(base.Investors[k], base.Companies[k])
			if got != want {
				t.Fatalf("workers=%d community %d: %s != %s", workers, k, got, want)
			}
		}
	}
}
