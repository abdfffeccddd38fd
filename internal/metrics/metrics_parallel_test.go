package metrics

import (
	"fmt"
	"math"
	"testing"

	"crowdscope/internal/graph"
	"crowdscope/internal/stats"
)

func pairTestGraph(nInv, nComp, deg int, seed int64) *graph.FrozenBipartite {
	invs, cos := make([]string, nInv), make([]string, nComp)
	for i := range invs {
		invs[i] = fmt.Sprint("inv", i)
	}
	for i := range cos {
		cos[i] = fmt.Sprint("co", i)
	}
	// Deterministic overlapping neighborhoods: investor i invests in deg
	// consecutive companies starting at a stride-dependent offset.
	rows := make([][]int32, nInv)
	for i := range rows {
		for d := 0; d < deg; d++ {
			rows[i] = append(rows[i], int32((i*3+d*7+int(seed))%nComp))
		}
	}
	return graph.FromIndexRows(invs, cos, rows)
}

func TestGlobalPairSampleParallelWorkerInvariant(t *testing.T) {
	b := pairTestGraph(150, 60, 5, 9)
	want, err := GlobalPairSampleParallel(b, 9000, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 9000 {
		t.Fatalf("sample length %d", len(want))
	}
	for _, workers := range []int{2, 4} {
		got, err := GlobalPairSampleParallel(b, 9000, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("workers=%d: sample %d differs: %v != %v", workers, k, got[k], want[k])
			}
		}
	}
}

func TestPairAtUniformCoverage(t *testing.T) {
	// Every ordered pair over a small population should be hit with
	// roughly uniform frequency, and i != j always.
	const pop = 7
	counts := map[[2]int]int{}
	const draws = pop * (pop - 1) * 500
	for k := 0; k < draws; k++ {
		i, j := stats.PairAt(11, k, pop)
		if i == j || i < 0 || j < 0 || i >= pop || j >= pop {
			t.Fatalf("draw %d: invalid pair (%d, %d)", k, i, j)
		}
		counts[[2]int{i, j}]++
	}
	if len(counts) != pop*(pop-1) {
		t.Fatalf("covered %d of %d ordered pairs", len(counts), pop*(pop-1))
	}
	for p, c := range counts {
		if c < 350 || c > 650 {
			t.Errorf("pair %v drawn %d times, expected ~500", p, c)
		}
	}
}
