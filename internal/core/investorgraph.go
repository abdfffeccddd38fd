package core

import (
	"crowdscope/internal/graph"
)

// GraphStats summarizes the bipartite graph as the paper reports it:
// node/edge counts, the average investors per company, and the
// degree-concentration rows (out-degree >= 3, 4, 5).
type GraphStats struct {
	Investors         int
	Companies         int
	Edges             int
	AvgInvestorsPerCo float64
	DegreeShares      []graph.DegreeShare
}

// InvestorGraphStats computes the Section 5.1 statistics.
func InvestorGraphStats(b *graph.FrozenBipartite) GraphStats {
	st := GraphStats{
		Investors: b.NumLeft(),
		Companies: b.NumRight(),
		Edges:     b.NumEdges(),
	}
	if b.NumRight() > 0 {
		st.AvgInvestorsPerCo = float64(b.NumEdges()) / float64(b.NumRight())
	}
	st.DegreeShares = graph.LeftDegreeShares(b, []int{3, 4, 5})
	return st
}
