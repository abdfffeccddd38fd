package core

import (
	"fmt"
	"math/rand"
	"sort"

	"crowdscope/internal/community"
	"crowdscope/internal/graph"
	"crowdscope/internal/metrics"
	"crowdscope/internal/stats"
)

// ---- Figure 3: CDF of investments per investor ----

// Fig3Result carries the investment-count distribution of Figure 3 plus
// the headline statistics the paper quotes (mean 3.3, median 1, max
// ≈1000, average follows 247).
type Fig3Result struct {
	CDFX, CDFY  []float64
	Mean        float64
	Median      float64
	Max         int
	MeanFollows float64
	// PowerLawAlpha is the MLE tail exponent (x >= 2), quantifying the
	// "long-tailed distribution" observation; 0 when the tail is too
	// small to fit.
	PowerLawAlpha float64
}

// RunFig3 computes the Figure 3 distribution from the merged investors.
func RunFig3(investors []Investor) Fig3Result {
	counts := make([]float64, len(investors))
	follows := make([]float64, len(investors))
	maxInv := 0
	for i, inv := range investors {
		counts[i] = float64(len(inv.Investments))
		follows[i] = float64(inv.Follows)
		if len(inv.Investments) > maxInv {
			maxInv = len(inv.Investments)
		}
	}
	res := Fig3Result{Max: maxInv}
	if len(counts) == 0 {
		return res
	}
	e := stats.MustECDF(counts)
	res.CDFX, res.CDFY = e.Points()
	res.Mean = stats.Mean(counts)
	res.Median = stats.Median(counts)
	res.MeanFollows = stats.Mean(follows)
	if alpha, _, err := stats.PowerLawAlpha(counts, 2); err == nil {
		res.PowerLawAlpha = alpha
	}
	return res
}

// ---- E5: CoDA community detection (Section 5.2) ----

// CommunitiesResult carries the detected communities and their headline
// stats (the paper: 96 communities, average size 190.2).
type CommunitiesResult struct {
	Assignment *community.Assignment
	// Filtered is the min-degree-filtered graph detection ran on, as
	// FilterLeftMinDegree (or, when sampled, CapLeftDegree) built it;
	// member indices refer to it.
	Filtered *graph.FrozenBipartite
	MeanSize float64
}

// RunCommunities applies the paper's pipeline: filter to investors with
// at least minDeg investments (the paper uses 4), then run CoDA with K
// communities. Detection runs on the process-default worker pool.
func RunCommunities(b *graph.FrozenBipartite, minDeg, k int, seed int64) (*CommunitiesResult, error) {
	cr, _, _, err := detectCommunities(b, minDeg, k, 0, Budget{Seed: seed})
	return cr, err
}

// detectCommunities is the filter → CoDA step RunCommunities and Analyze
// share. It fits CoDA, seeded by budget.Seed, on the investors with at
// least minDeg investments (filteredEdges edges) or, past the budget's
// CommunityEdgeLimit, on their degree-capped subgraph (sampled).
// workers <= 0 selects the process-default pool; the fit is
// bit-identical for every worker count.
func detectCommunities(b *graph.FrozenBipartite, minDeg, k, workers int, budget Budget) (cr *CommunitiesResult, filteredEdges int, sampled bool, err error) {
	filtered := graph.FilterLeftMinDegree(b, minDeg)
	detect := filtered
	if budget.CommunityEdgeLimit > 0 && filtered.NumEdges() > budget.CommunityEdgeLimit {
		detect = graph.CapLeftDegree(filtered, budget.MaxLeftDegree, budget.Seed)
		sampled = true
	}
	coda := &community.CoDA{K: k, Seed: budget.Seed, Workers: workers}
	a, err := coda.Detect(detect)
	if err != nil {
		return nil, 0, false, err
	}
	return &CommunitiesResult{
		Assignment: a,
		Filtered:   detect,
		MeanSize:   a.MeanInvestorSize(),
	}, filtered.NumEdges(), sampled, nil
}

// ---- Figure 4: shared-investment-size CDFs ----

// Fig4Result compares the shared-investment-size CDFs of the strongest
// communities against the global pair-sample estimate, with the DKW
// accuracy band the paper quotes.
type Fig4Result struct {
	// Communities lists the top communities' CDFs, strongest first.
	Communities []NamedCDF
	Global      NamedCDF
	// GlobalPairs is the sample size; DKWEps the band half-width at 99%
	// (paper: 800,000 pairs, eps <= 0.0196).
	GlobalPairs int
	DKWEps      float64
	// AvgShared lists the same communities' average shared sizes (the
	// paper reports 2.1 and 1.6 for its two strongest).
	AvgShared []float64
	MaxShared float64
}

// NamedCDF is a labeled CDF curve.
type NamedCDF struct {
	Name string
	X, Y []float64
}

// RunFig4 ranks the communities by strength, takes the top n, and builds
// their shared-size CDFs plus the sampled global CDF.
func RunFig4(cr *CommunitiesResult, topN, globalPairs int, seed int64) (*Fig4Result, error) {
	scores := metrics.RankCommunities(cr.Filtered, cr.Assignment.Investors)
	if topN > len(scores) {
		topN = len(scores)
	}
	res := &Fig4Result{GlobalPairs: globalPairs}
	for i := 0; i < topN; i++ {
		members := cr.Assignment.Investors[scores[i].Index]
		sizes := metrics.SharedSizes(cr.Filtered, members)
		if len(sizes) == 0 {
			continue
		}
		e := stats.MustECDF(sizes)
		x, y := e.Points()
		res.Communities = append(res.Communities, NamedCDF{
			Name: fmt.Sprintf("community %d", i+1),
			X:    x, Y: y,
		})
		res.AvgShared = append(res.AvgShared, scores[i].AvgShared)
		if e.Max() > res.MaxShared {
			res.MaxShared = e.Max()
		}
	}
	// Counter-based parallel sampling on the process-default pool; the
	// sample (and thus the CDF) is identical for every worker count.
	sample, err := metrics.GlobalPairSampleParallel(cr.Filtered, globalPairs, seed, 0)
	if err != nil {
		return nil, err
	}
	ge := stats.MustECDF(sample)
	gx, gy := ge.Points()
	res.Global = NamedCDF{Name: "global (sampled)", X: gx, Y: gy}
	res.DKWEps, err = stats.DKWEpsilon(globalPairs, 0.99)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ---- Figure 5: PDF of shared-investor company percentages ----

// Fig5Result estimates the distribution over communities of the
// percentage of companies with >= K shared investors, against the
// randomized baseline (paper: mean 23.1% vs 5.8% randomized, K = 2).
type Fig5Result struct {
	Percentages []float64
	PDFX, PDFY  []float64
	Mean        float64
	// MeanCI95 is a bootstrap 95% confidence interval on the mean
	// percentage (the paper reports the point estimate 23.1% only).
	MeanCI95   [2]float64
	Randomized float64
	K          int
}

// RunFig5 computes the per-community percentages, a KDE estimate of
// their PDF, and the randomized-community baseline.
func RunFig5(cr *CommunitiesResult, k int, seed int64) (*Fig5Result, error) {
	res := &Fig5Result{K: k}
	sizes := make([]int, 0, cr.Assignment.NumCommunities())
	for _, members := range cr.Assignment.Investors {
		res.Percentages = append(res.Percentages, metrics.SharedCompanyPct(cr.Filtered, members, k))
		sizes = append(sizes, len(members))
	}
	if len(res.Percentages) == 0 {
		return nil, fmt.Errorf("core: no communities for Figure 5")
	}
	res.Mean = stats.Mean(res.Percentages)
	bootRng := rand.New(rand.NewSource(seed + 1))
	var bootMeans []float64
	stats.Bootstrap(bootRng, res.Percentages, 1000, func(rs []float64) {
		bootMeans = append(bootMeans, stats.Mean(rs))
	})
	if len(bootMeans) > 0 {
		res.MeanCI95 = [2]float64{stats.Percentile(bootMeans, 2.5), stats.Percentile(bootMeans, 97.5)}
	}
	kde, err := stats.NewKDE(res.Percentages, 0)
	if err != nil {
		return nil, err
	}
	res.PDFX, res.PDFY = kde.Grid(120)
	rng := rand.New(rand.NewSource(seed))
	res.Randomized = metrics.RandomizedPctBaseline(cr.Filtered, sizes, k, rng)
	return res, nil
}

// ---- Figure 7: strong vs weak community extraction ----

// Fig7Community is one community prepared for visualization, with the
// metrics the paper reports alongside (strong: 2.1 / 27.9%; weak: 0.018 /
// 12.5%).
type Fig7Community struct {
	Investors []string
	Companies []string
	Edges     [][2]int // indices into investors ++ companies
	AvgShared float64
	SharedPct float64
}

// Fig7Result pairs the strongest and weakest sizeable communities.
type Fig7Result struct {
	Strong Fig7Community
	Weak   Fig7Community
}

// RunFig7 selects the strongest community and the weakest with at least
// minSize members and extracts their induced subgraphs for rendering.
func RunFig7(cr *CommunitiesResult, minSize int) (*Fig7Result, error) {
	scores := metrics.RankCommunities(cr.Filtered, cr.Assignment.Investors)
	if len(scores) == 0 {
		return nil, fmt.Errorf("core: no communities for Figure 7")
	}
	pick := func(s metrics.CommunityScore) Fig7Community {
		members := cr.Assignment.Investors[s.Index]
		return extractSubgraph(cr.Filtered, members, s)
	}
	strong := scores[0]
	weak := scores[len(scores)-1]
	for i := len(scores) - 1; i >= 0; i-- {
		if scores[i].Size >= minSize {
			weak = scores[i]
			break
		}
	}
	return &Fig7Result{Strong: pick(strong), Weak: pick(weak)}, nil
}

func extractSubgraph(b *graph.FrozenBipartite, members []int32, s metrics.CommunityScore) Fig7Community {
	c := Fig7Community{AvgShared: s.AvgShared, SharedPct: s.SharedPctK2}
	companyIdx := map[int32]int{}
	for _, u := range members {
		c.Investors = append(c.Investors, b.LeftLabel(u))
	}
	for i, u := range members {
		for _, v := range b.Fwd(u) {
			j, ok := companyIdx[v]
			if !ok {
				j = len(c.Companies)
				companyIdx[v] = j
				c.Companies = append(c.Companies, b.RightLabel(v))
			}
			c.Edges = append(c.Edges, [2]int{i, len(members) + j})
		}
		_ = i
	}
	return c
}

// ---- E9: detector comparison ----

// DetectorResult scores one algorithm on the same filtered graph.
type DetectorResult struct {
	Name        string
	Communities int
	MeanSize    float64
	// Top3AvgShared averages the three strongest communities' shared
	// sizes — the comparison axis the paper's metrics define.
	Top3AvgShared float64
	MeanPctK2     float64
	// RecoveryF1 scores against planted ground truth when provided.
	RecoveryF1 float64
}

// CompareDetectors runs every detector on the filtered graph and scores
// the results with the paper's metrics; truth (optional) adds planted-
// recovery F1.
func CompareDetectors(filtered *graph.FrozenBipartite, k int, seed int64, truth [][]int32) ([]DetectorResult, error) {
	detectors := []community.Detector{
		&community.CoDA{K: k, Seed: seed},
		&community.BigCLAM{K: k, Seed: seed},
		&community.LabelProp{Seed: seed},
		&community.Louvain{Seed: seed},
		&community.SBM{K: k, Seed: seed},
	}
	var out []DetectorResult
	for _, det := range detectors {
		a, err := det.Detect(filtered)
		if err != nil {
			return nil, fmt.Errorf("core: detector %s: %w", det.Name(), err)
		}
		r := DetectorResult{
			Name:        det.Name(),
			Communities: a.NumCommunities(),
			MeanSize:    a.MeanInvestorSize(),
		}
		scores := metrics.RankCommunities(filtered, a.Investors)
		var top float64
		n := 0
		for i := 0; i < len(scores) && i < 3; i++ {
			top += scores[i].AvgShared
			n++
		}
		if n > 0 {
			r.Top3AvgShared = top / float64(n)
		}
		var pct float64
		for _, s := range scores {
			pct += s.SharedPctK2
		}
		if len(scores) > 0 {
			r.MeanPctK2 = pct / float64(len(scores))
		}
		if truth != nil {
			r.RecoveryF1 = community.RecoveryScore(truth, a.Investors)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
