package graph

// BipartiteView is the read-only two-mode graph interface consumed by the
// community detectors, the co-investment metrics, the projections and the
// visualizations. Implemented by the mutable *Bipartite (builder path)
// and the snapshot-backed *FrozenBipartite; both present adjacency rows in
// the same order, so every algorithm written against the view produces
// bit-identical results on either.
type BipartiteView interface {
	NumLeft() int
	NumRight() int
	NumEdges() int
	LeftLabel(idx int32) string
	RightLabel(idx int32) string
	LeftIndex(label string) (int32, bool)
	RightIndex(label string) (int32, bool)
	// Fwd and Rev return adjacency rows owned by the graph; callers must
	// not modify them.
	Fwd(idx int32) []int32
	Rev(idx int32) []int32
	OutDegree(idx int32) int
	InDegree(idx int32) int
	HasEdge(left, right string) bool
}

var (
	_ BipartiteView = (*Bipartite)(nil)
	_ BipartiteView = (*FrozenBipartite)(nil)
)

// FilterLeftMinDegree returns a new bipartite graph containing only left
// nodes of v with out-degree >= min (and the right nodes they reach). The
// paper applies this with min = 4 before community detection to make
// clusters statistically meaningful. Iteration is in left-index then row
// order, so the result is identical for every implementation of the view.
func FilterLeftMinDegree(v BipartiteView, min int) *Bipartite {
	nb := NewBipartite(v.NumLeft(), v.NumRight())
	for u := int32(0); int(u) < v.NumLeft(); u++ {
		if v.OutDegree(u) < min {
			continue
		}
		for _, r := range v.Fwd(u) {
			nb.AddEdge(v.LeftLabel(u), v.RightLabel(r))
		}
	}
	return nb
}
