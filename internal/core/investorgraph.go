package core

import (
	"crowdscope/internal/graph"
)

// BuildInvestorGraph builds the Section 5.1 bipartite graph as a mutable
// graph: an edge per (investor, company) investment, restricted to
// investors with at least one investment (LoadInvestors already
// filters). Adjacency is sorted so the shared-investment metrics can
// intersect in linear time. Frozen snapshots do not go through it — their
// CSR comes from graph.FromRows, which is tested against this builder —
// it serves callers that filter or extend the graph.
func BuildInvestorGraph(investors []Investor) *graph.Bipartite {
	b := graph.NewBipartite(len(investors), len(investors)*3)
	for _, inv := range investors {
		for _, cid := range inv.Investments {
			b.AddEdge(inv.ID, cid)
		}
	}
	b.SortAdjacency()
	return b
}

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
func InvestorGraphStats(b graph.BipartiteView) GraphStats {
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
