package core

import (
	"context"
	"fmt"
)

// Budgeted analysis: the paper-scale entry point. Most of the suite
// (engagement table, graph stats, Figure 3) is linear in the data and
// always runs exactly; community detection is the superlinear kernel,
// so the budget decides between the exact filtered graph and a
// documented sampled estimator — a degree-capped subgraph (see
// graph.CapLeftDegree) whose edge count is bounded by
// MaxLeftDegree × investors. Results on the sampled graph are estimates
// and are flagged as such in the result.

// Budget bounds the analysis kernels. The zero value means "no budget"
// (always exact); DefaultBudget returns the paper-scale calibration.
type Budget struct {
	// CommunityEdgeLimit is the largest edge count of the min-degree
	// filtered graph that still runs exact community detection. Above
	// it, detection runs on the degree-capped subgraph. Zero disables
	// capping.
	CommunityEdgeLimit int
	// MaxLeftDegree caps each investor's out-degree in the sampled
	// subgraph.
	MaxLeftDegree int
	// Seed drives the deterministic edge sampling.
	Seed int64
}

// DefaultBudget is calibrated so sub-paper scales stay exact while the
// full 1.85M-node graph (≈150K filtered investors after min-degree 4 at
// paper scale) gets capped to a tractable edge count.
func DefaultBudget() Budget {
	return Budget{CommunityEdgeLimit: 2_000_000, MaxLeftDegree: 50, Seed: 1}
}

// AnalyzeResult bundles the budgeted analysis suite for one snapshot.
type AnalyzeResult struct {
	Snapshot   int
	Companies  int
	Investors  int
	Engagement []EngagementRow
	Thresholds EngagementThresholds
	Graph      GraphStats
	Fig3       Fig3Result

	Communities *CommunitiesResult
	// CommunitiesSampled reports that detection ran on the degree-capped
	// subgraph (an estimator) rather than the exact filtered graph.
	CommunitiesSampled bool
	// FilteredEdges is the exact filtered graph's edge count, the
	// quantity the budget gated on.
	FilteredEdges int
}

// Analyze runs the suite over a loaded frozen snapshot under the budget.
// minDeg and k parameterize community detection exactly as
// RunCommunities does (the paper: minDeg 4); workers bounds the
// parallel kernels (<= 0 selects the process default). The context is
// checked between kernels — analysis stages are pure CPU, so
// cancellation takes effect at stage boundaries.
func Analyze(ctx context.Context, fs *FrozenSnapshot, minDeg, k, workers int, budget Budget) (*AnalyzeResult, error) {
	res := &AnalyzeResult{
		Snapshot:  fs.Snapshot,
		Companies: len(fs.Companies),
		Investors: len(fs.Investors),
	}
	rows, thresholds, err := EngagementTable(fs.Companies)
	if err != nil {
		return nil, err
	}
	res.Engagement, res.Thresholds = rows, thresholds
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	res.Graph = InvestorGraphStats(fs.Graph)
	res.Fig3 = RunFig3(fs.Investors)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}

	res.Communities, res.FilteredEdges, res.CommunitiesSampled, err = detectCommunities(fs.Graph, minDeg, k, workers, budget)
	if err != nil {
		return nil, err
	}
	return res, nil
}
