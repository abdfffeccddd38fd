package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"crowdscope/internal/crawler"
	"crowdscope/internal/dynamics"
	"crowdscope/internal/predict"
	"crowdscope/internal/stats"
	"crowdscope/internal/store"
)

// This file implements the paper's Section 7 agenda as concrete
// experiments: startup-success prediction from graph and engagement
// features (E11), a longitudinal causality analysis (E12), and community
// formation/disbanding dynamics (E13).

// ---- E11: success prediction ----

// LoadCompanyFollowerCounts aggregates, per startup, how many AngelList
// users follow it — a count by key over the follow lists of the whole
// user snapshot (the "node degree in the AngelList network" feature of
// §7).
// The context bounds the user scan.
func LoadCompanyFollowerCounts(ctx context.Context, st *store.Store, snapshot int) (map[string]int, error) {
	snapshot, err := crawledSnapshot(ctx, st, snapshot)
	if err != nil {
		return nil, err
	}
	// As in the snapshot loader, the last record per user wins.
	latest := map[string]crawler.UserRecord{}
	err = store.ScanAsContext(ctx, st, crawler.NSUsers, func(r crawler.UserRecord) error {
		if r.Snapshot == snapshot {
			latest[r.ID] = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, r := range latest {
		for _, sid := range r.FollowsStartups {
			counts[sid]++
		}
	}
	return counts, nil
}

// BuildFeatures assembles the §7 prediction dataset: social presence and
// engagement, demo video, the company's investor count (bipartite
// in-degree), and its AngelList follower count. The label is Funded.
func BuildFeatures(companies []Company, investors []Investor, followerCounts map[string]int) *predict.Dataset {
	investorDeg := map[string]int{}
	for _, inv := range investors {
		for _, cid := range inv.Investments {
			investorDeg[cid]++
		}
	}
	d := &predict.Dataset{
		Names: []string{
			"has_facebook", "has_twitter", "has_video",
			"log_likes", "log_tweets", "log_followers",
			"log_al_followers", "investor_degree",
		},
	}
	for _, c := range companies {
		row := []float64{
			b2f(c.HasFacebook), b2f(c.HasTwitter), b2f(c.HasVideo),
			math.Log1p(float64(c.Likes)), math.Log1p(float64(c.Tweets)), math.Log1p(float64(c.Followers)),
			math.Log1p(float64(followerCounts[c.ID])), float64(investorDeg[c.ID]),
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, c.Funded)
	}
	return d
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// PredictionResult reports the §7 prediction experiment.
type PredictionResult struct {
	TestAUC      float64
	TestAccuracy float64
	// Selected lists the forward-selected feature names in selection
	// order, with the validation AUC the selection achieved.
	Selected     []string
	SelectionAUC float64
	// TopWeight names the largest-|weight| feature of the full model.
	TopWeight string
	// CVMeanAUC/CVStdAUC report 5-fold cross-validated AUC.
	CVMeanAUC float64
	CVStdAUC  float64
}

// RunPrediction trains and evaluates the success predictor.
func RunPrediction(d *predict.Dataset, seed int64) (*PredictionResult, error) {
	rng := rand.New(rand.NewSource(seed))
	trainIdx, testIdx := predict.Split(rng, len(d.X), 0.3)
	model, err := predict.Train(d.Subset(trainIdx), predict.TrainOptions{})
	if err != nil {
		return nil, err
	}
	test := d.Subset(testIdx)
	scores := model.ScoreAll(test)
	res := &PredictionResult{
		TestAUC:      predict.AUC(scores, test.Y),
		TestAccuracy: predict.Accuracy(scores, test.Y, 0.5),
	}
	top, topW := "", 0.0
	for i, w := range model.Weights {
		if a := math.Abs(w); a > topW {
			top, topW = model.Names[i], a
		}
	}
	res.TopWeight = top
	cols, auc, err := predict.ForwardSelect(d, 4, 0.002, seed, predict.TrainOptions{Iterations: 150})
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		res.Selected = append(res.Selected, d.Names[c])
	}
	res.SelectionAUC = auc
	res.CVMeanAUC, res.CVStdAUC, err = predict.CrossValidate(d, 5, seed, predict.TrainOptions{Iterations: 150})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ---- E12: causality analysis ----

// CausalityResult reports the longitudinal engagement→funding analysis
// between two snapshots: among companies unfunded at the first snapshot,
// does social-engagement growth precede funding?
type CausalityResult struct {
	PanelSize int // companies unfunded at the first snapshot
	Converted int // of those, funded by the second snapshot
	// ConversionHighDelta/LowDelta split the panel by above/below-median
	// engagement growth.
	ConversionHighDelta float64
	ConversionLowDelta  float64
	// Corr is the point-biserial correlation between engagement delta and
	// conversion; Chi2/P the 2×2 significance test.
	Corr float64
	Chi2 float64
	P    float64
}

// RunCausality builds the two-snapshot panel and tests whether engagement
// growth between the snapshots is associated with converting to funded —
// the study the paper's §7 proposes (observational, so "causality" in the
// paper's Granger-style sense of temporal precedence). Both snapshots
// are read from their frozen artifacts.
func RunCausality(ctx context.Context, st *store.Store, snapA, snapB int) (*CausalityResult, error) {
	before, err := LoadFrozenContext(ctx, st, snapA)
	if err != nil {
		return nil, err
	}
	after, err := LoadFrozenContext(ctx, st, snapB)
	if err != nil {
		return nil, err
	}
	afterByID := make(map[string]Company, len(after.Companies))
	for _, c := range after.Companies {
		afterByID[c.ID] = c
	}
	var deltas []float64
	var converted []bool
	for _, c := range before.Companies {
		if c.Funded {
			continue // panel = at risk of converting
		}
		a, ok := afterByID[c.ID]
		if !ok {
			continue
		}
		delta := float64(a.Likes-c.Likes) + float64(a.Tweets-c.Tweets) + float64(a.Followers-c.Followers)
		deltas = append(deltas, delta)
		converted = append(converted, a.Funded)
	}
	if len(deltas) < 4 {
		return nil, fmt.Errorf("core: causality panel too small (%d)", len(deltas))
	}
	res := &CausalityResult{PanelSize: len(deltas)}
	med := stats.Median(deltas)
	var highConv, highAll, lowConv, lowAll float64
	conv := make([]float64, len(deltas))
	for i, d := range deltas {
		if converted[i] {
			res.Converted++
			conv[i] = 1
		}
		if d > med {
			highAll++
			if converted[i] {
				highConv++
			}
		} else {
			lowAll++
			if converted[i] {
				lowConv++
			}
		}
	}
	if highAll > 0 {
		res.ConversionHighDelta = highConv / highAll
	}
	if lowAll > 0 {
		res.ConversionLowDelta = lowConv / lowAll
	}
	res.Corr, _ = stats.Pearson(deltas, conv)
	res.Chi2, res.P, _ = stats.ChiSquare2x2(highConv, highAll-highConv, lowConv, lowAll-lowConv)
	return res, nil
}

// ---- E13: community dynamics ----

// DynamicsResult reports community evolution between two snapshots.
type DynamicsResult struct {
	PrevCommunities int
	CurCommunities  int
	Transition      dynamics.Transition
	Counts          map[dynamics.Event]int
}

// RunDynamics detects communities in both snapshots (membership expressed
// as stable user IDs) and tracks formation/disbanding between them. The
// investment graphs come from the snapshots' frozen artifacts.
func RunDynamics(ctx context.Context, st *store.Store, snapA, snapB, minDeg, k int, seed int64) (*DynamicsResult, error) {
	labeled := func(snap int) ([][]string, error) {
		fs, err := LoadFrozenContext(ctx, st, snap)
		if err != nil {
			return nil, err
		}
		cr, err := RunCommunities(fs.Graph, minDeg, k, seed)
		if err != nil {
			return nil, err
		}
		var out [][]string
		for _, members := range cr.Assignment.Investors {
			var ids []string
			for _, m := range members {
				ids = append(ids, cr.Filtered.LeftLabel(m))
			}
			out = append(out, ids)
		}
		return out, nil
	}
	prev, err := labeled(snapA)
	if err != nil {
		return nil, err
	}
	cur, err := labeled(snapB)
	if err != nil {
		return nil, err
	}
	tr := dynamics.Track(prev, cur, 0.2, 0.15)
	return &DynamicsResult{
		PrevCommunities: len(prev),
		CurCommunities:  len(cur),
		Transition:      tr,
		Counts:          tr.Counts(),
	}, nil
}
