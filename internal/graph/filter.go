package graph

import (
	"math/rand"
	"slices"
)

// FilterLeftMinDegree returns the subgraph of b's left nodes with
// out-degree >= min and the right nodes they reach. The paper applies
// this with min = 4 before community detection to make clusters
// statistically meaningful.
func FilterLeftMinDegree(b *FrozenBipartite, min int) *FrozenBipartite {
	return b.subgraph(func(row []int32) []int32 {
		if len(row) < min {
			return nil
		}
		return row
	})
}

// CapLeftDegree returns the subgraph of b in which every left node keeps
// at most cap of its edges. Nodes at or under the cap keep their full
// row; heavier nodes keep a uniform reservoir sample of cap edges. The
// sampling is driven by a single seeded generator walked in left-index
// order, so the result is deterministic for a given (graph, cap, seed).
//
// This is the estimator backing budgeted analytics at paper scale:
// community detection cost scales with edge count, and capping the few
// super-investors (out-degree up to ~1000) bounds the edge total while
// uniform per-row sampling preserves each investor's portfolio
// composition in expectation.
func CapLeftDegree(b *FrozenBipartite, cap int, seed int64) *FrozenBipartite {
	if cap < 1 {
		cap = 1
	}
	rng := rand.New(rand.NewSource(seed))
	keep := make([]int, cap)
	kept := make([]int32, cap)
	return b.subgraph(func(row []int32) []int32 {
		if len(row) <= cap {
			return row
		}
		// Reservoir over row positions, then restore row order.
		for i := range keep {
			keep[i] = i
		}
		for i := cap; i < len(row); i++ {
			if j := rng.Intn(i + 1); j < cap {
				keep[j] = i
			}
		}
		slices.Sort(keep)
		for k, i := range keep {
			kept[k] = row[i]
		}
		return kept
	})
}

// subgraph keeps, for each left node in index order, the edges pick
// returns from its row: a subsequence of the row, which pick may hold in
// a buffer it reuses. A left node that keeps no edge is dropped, survivors
// keep their order, and the right nodes kept are renumbered through a
// dense remap by first appearance in (left index, row order) — the
// numbering the reference builder gives them (TestFilterAndCapMatchReference).
func (b *FrozenBipartite) subgraph(pick func(row []int32) []int32) *FrozenBipartite {
	remap := make([]int32, b.NumRight()) // new index + 1; 0 while unseen
	var left, right []string
	fwd := &csr{offsets: []int64{0}, targets: make([]int32, 0, b.NumEdges())}
	for u := range b.NumLeft() {
		kept := pick(b.Fwd(int32(u)))
		if len(kept) == 0 {
			continue
		}
		for _, v := range kept {
			if remap[v] == 0 {
				right = append(right, b.rightLabels[v])
				remap[v] = int32(len(right))
			}
			fwd.targets = append(fwd.targets, remap[v]-1)
		}
		fwd.offsets = append(fwd.offsets, int64(len(fwd.targets)))
		left = append(left, b.leftLabels[u])
	}
	return fromCSR(left, right, fwd)
}
