package graph

import "sort"

// WeightedEdge is an undirected weighted edge in a one-mode projection.
type WeightedEdge struct {
	U, V   int32
	Weight float64
}

// ProjectLeft builds the one-mode projection of the bipartite graph onto
// its left nodes: investors are connected when they co-invested in at least
// minShared companies, weighted by the number of shared companies. The
// projected-graph community baselines (Louvain, label propagation) operate
// on this structure.
//
// Complexity is sum over right nodes of deg^2, which is fine for the
// paper's avg in-degree of 2.6.
func ProjectLeft(b BipartiteView, minShared int) []WeightedEdge {
	if minShared < 1 {
		minShared = 1
	}
	weights := make(map[[2]int32]int)
	for v := int32(0); int(v) < b.NumRight(); v++ {
		investors := b.Rev(v)
		for i := 0; i < len(investors); i++ {
			for j := i + 1; j < len(investors); j++ {
				a, c := investors[i], investors[j]
				if a > c {
					a, c = c, a
				}
				weights[[2]int32{a, c}]++
			}
		}
	}
	edges := make([]WeightedEdge, 0, len(weights))
	for k, w := range weights {
		if w >= minShared {
			edges = append(edges, WeightedEdge{U: k[0], V: k[1], Weight: float64(w)})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return edges
}

// SharedRightCount returns |Fwd(a) ∩ Fwd(c)| — the paper's "shared
// investment size" between two investors. It requires ascending rows, as
// SortAdjacency leaves them and every frozen snapshot stores them; there
// is no fallback, so on unsorted rows the count is wrong.
func SharedRightCount(b BipartiteView, a, c int32) int {
	return sortedIntersectLen(b.Fwd(a), b.Fwd(c))
}

// sortedIntersectLen returns the intersection size of two ascending-sorted
// slices.
func sortedIntersectLen(x, y []int32) int {
	i, j, n := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			n++
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return n
}
