package graph

// DegreeShare is one row of a degree-concentration table: the fraction of
// left nodes whose out-degree is at least MinDegree, and the fraction of
// all edges those nodes account for. Section 5.1 of the paper reports
// (≥3 → 30% of investors / 75% of edges), (≥4 → 22.2% / 68.3%),
// (≥5 → 17.0% / 62.0%).
type DegreeShare struct {
	MinDegree    int
	NodeFraction float64
	EdgeFraction float64
}

// LeftDegreeShares computes the degree-concentration rows for the given
// thresholds over the bipartite graph's left side.
func LeftDegreeShares(b *FrozenBipartite, thresholds []int) []DegreeShare {
	out := make([]DegreeShare, 0, len(thresholds))
	totalNodes := b.NumLeft()
	totalEdges := b.NumEdges()
	for _, k := range thresholds {
		var nodes, edges int
		for u := int32(0); int(u) < totalNodes; u++ {
			d := b.OutDegree(u)
			if d >= k {
				nodes++
				edges += d
			}
		}
		share := DegreeShare{MinDegree: k}
		if totalNodes > 0 {
			share.NodeFraction = float64(nodes) / float64(totalNodes)
		}
		if totalEdges > 0 {
			share.EdgeFraction = float64(edges) / float64(totalEdges)
		}
		out = append(out, share)
	}
	return out
}
