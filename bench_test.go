package crowdscope

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (see DESIGN.md §3 for the experiment index) plus the ablations
// A1 and A2. Each benchmark reports the figure's headline quantities
// as custom metrics so `go test -bench` output doubles as the
// reproduction record. The shared fixture is scale 0.01; crowdscope
// analyze -scale prints the same experiments at any scale.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/community"
	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/graph"
	"crowdscope/internal/viz"
)

var (
	benchOnce sync.Once
	benchPipe *Pipeline
	benchSnap *crawler.Snapshot
	benchAnal *Analysis
	benchErr  error
)

// fixture builds one crawled, analyzed world shared by every benchmark.
func fixture(b *testing.B) (*Pipeline, *crawler.Snapshot, *Analysis) {
	b.Helper()
	benchOnce.Do(func() {
		p, err := NewPipeline(PipelineConfig{Seed: 42, Scale: 0.01})
		if err != nil {
			benchErr = err
			return
		}
		snap, err := p.Crawl(context.Background(), 0)
		if err != nil {
			benchErr = err
			return
		}
		a, err := p.Analyze(context.Background(), -1)
		if err != nil {
			benchErr = err
			return
		}
		benchPipe, benchSnap, benchAnal = p, snap, a
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchPipe, benchSnap, benchAnal
}

// ---- E1: §3 dataset collection ----

// BenchmarkE1DatasetSummary measures one full collection run (BFS +
// augmentation) on a small world, reporting the §3 dataset counts.
func BenchmarkE1DatasetSummary(b *testing.B) {
	world, err := ecosystem.Generate(ecosystem.NewConfig(1, 0.002))
	if err != nil {
		b.Fatal(err)
	}
	srv := apiserver.New(world, apiserver.Options{Tokens: []string{"t1", "t2"}, TwitterLimit: 1 << 30})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	b.ResetTimer()
	var last *crawler.Snapshot
	for i := 0; i < b.N; i++ {
		client, err := crawler.NewClient(ts.URL, []string{"t1", "t2"})
		if err != nil {
			b.Fatal(err)
		}
		cr := &crawler.Crawler{Client: client, Workers: 8}
		snap, err := cr.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = snap
	}
	b.ReportMetric(float64(last.Stats.StartupsCrawled), "companies")
	b.ReportMetric(float64(last.Stats.UsersCrawled), "users")
	b.ReportMetric(float64(last.Stats.FacebookProfiles), "fb_profiles")
	b.ReportMetric(float64(last.Stats.TwitterProfiles), "tw_profiles")
	b.ReportMetric(float64(last.Stats.CBByLink+last.Stats.CBBySearch), "cb_profiles")
}

// ---- Figure 3 ----

// BenchmarkFig3InvestmentCDF regenerates the investments-per-investor CDF
// (paper: mean 3.3, median 1, max ≈1000, avg follows 247).
func BenchmarkFig3InvestmentCDF(b *testing.B) {
	_, _, a := fixture(b)
	b.ResetTimer()
	var res core.Fig3Result
	for i := 0; i < b.N; i++ {
		res = core.RunFig3(a.Investors)
	}
	b.ReportMetric(res.Mean, "mean_investments")
	b.ReportMetric(res.Median, "median_investments")
	b.ReportMetric(float64(res.Max), "max_investments")
	b.ReportMetric(res.MeanFollows, "mean_follows")
}

// ---- Figure 6 ----

// BenchmarkFig6EngagementTable regenerates the engagement table (paper:
// 0.4% no-social baseline, 30X Facebook lift).
func BenchmarkFig6EngagementTable(b *testing.B) {
	_, _, a := fixture(b)
	b.ResetTimer()
	var rows []core.EngagementRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = core.EngagementTable(a.Companies)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if lift, err := core.Lift(rows, "Facebook"); err == nil {
		b.ReportMetric(lift, "facebook_liftX")
	}
	if lift, err := core.Lift(rows, "Twitter"); err == nil {
		b.ReportMetric(lift, "twitter_liftX")
	}
	for _, r := range rows {
		if r.Label == "No social media presence" {
			b.ReportMetric(r.SuccessPct, "nosocial_success_pct")
		}
	}
}

// ---- E4: §5.1 investor graph ----

// BenchmarkE4InvestorGraph regenerates the bipartite graph statistics
// (paper: 46,966 investors / 59,953 companies / 158,199 edges; 2.6
// investors per company; ≥3 → 30%/75%).
func BenchmarkE4InvestorGraph(b *testing.B) {
	_, _, a := fixture(b)
	b.ResetTimer()
	var st core.GraphStats
	for i := 0; i < b.N; i++ {
		st = core.InvestorGraphStats(investorGraph(b, a.Investors))
	}
	b.ReportMetric(float64(st.Investors), "investors")
	b.ReportMetric(float64(st.Companies), "companies")
	b.ReportMetric(float64(st.Edges), "edges")
	b.ReportMetric(st.AvgInvestorsPerCo, "investors_per_co")
	b.ReportMetric(st.DegreeShares[0].NodeFraction*100, "deg3_node_pct")
	b.ReportMetric(st.DegreeShares[0].EdgeFraction*100, "deg3_edge_pct")
}

// ---- E5: §5.2 CoDA ----

// BenchmarkE5CoDA regenerates the community detection run (paper: 96
// communities, average size 190.2).
func BenchmarkE5CoDA(b *testing.B) {
	p, _, a := fixture(b)
	g := investorGraph(b, a.Investors)
	k := p.World.Cfg.NumCommunities()
	b.ResetTimer()
	var cr *core.CommunitiesResult
	for i := 0; i < b.N; i++ {
		var err error
		cr, err = core.RunCommunities(g, 4, k, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cr.Assignment.NumCommunities()), "communities")
	b.ReportMetric(cr.MeanSize, "mean_size")
}

// ---- Figure 4 ----

// BenchmarkFig4SharedInvestmentCDF regenerates the shared-investment-size
// CDF comparison (paper: strongest communities average 2.1/1.6 shared
// companies; 800,000-pair global sample within ±0.0196 at 99%).
func BenchmarkFig4SharedInvestmentCDF(b *testing.B) {
	_, _, a := fixture(b)
	b.ResetTimer()
	var res *core.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.RunFig4(a.Communities, 3, 100000, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.AvgShared) > 0 {
		b.ReportMetric(res.AvgShared[0], "strongest_avg_shared")
	}
	if len(res.AvgShared) > 1 {
		b.ReportMetric(res.AvgShared[1], "second_avg_shared")
	}
	b.ReportMetric(res.DKWEps, "dkw_eps")
	b.ReportMetric(res.MaxShared, "max_shared")
}

// ---- Figure 5 ----

// BenchmarkFig5CommunityPDF regenerates the per-community percentage PDF
// (paper: mean 23.1% vs randomized 5.8%).
func BenchmarkFig5CommunityPDF(b *testing.B) {
	_, _, a := fixture(b)
	b.ResetTimer()
	var res *core.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.RunFig5(a.Communities, 2, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Mean, "mean_pct")
	b.ReportMetric(res.Randomized, "randomized_pct")
}

// ---- Figure 7 ----

// BenchmarkFig7Visualization regenerates the strong/weak community
// pictures (paper: strong 2.1 / 27.9%, weak 0.018 / 12.5%).
func BenchmarkFig7Visualization(b *testing.B) {
	_, _, a := fixture(b)
	b.ResetTimer()
	var res *core.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.RunFig7(a.Communities, 3)
		if err != nil {
			b.Fatal(err)
		}
		err = viz.CommunitySVG(io.Discard, "strong", res.Strong.Investors, res.Strong.Companies, res.Strong.Edges, 42)
		if err != nil {
			b.Fatal(err)
		}
		err = viz.CommunitySVG(io.Discard, "weak", res.Weak.Investors, res.Weak.Companies, res.Weak.Edges, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Strong.AvgShared, "strong_avg_shared")
	b.ReportMetric(res.Strong.SharedPct, "strong_shared_pct")
	b.ReportMetric(res.Weak.AvgShared, "weak_avg_shared")
	b.ReportMetric(res.Weak.SharedPct, "weak_shared_pct")
}

// ---- E9: detector comparison ----

// BenchmarkE9DetectorComparison runs every detector on the same graph and
// reports CoDA's planted-truth recovery.
func BenchmarkE9DetectorComparison(b *testing.B) {
	p, _, a := fixture(b)
	truth := plantedTruthIdx(p, a)
	k := p.World.Cfg.NumCommunities()
	b.ResetTimer()
	var results []core.DetectorResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = core.CompareDetectors(a.Communities.Filtered, k, 42, truth)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(r.RecoveryF1, r.Name+"_truth_f1")
	}
}

// ---- E10: longitudinal ----

// BenchmarkE10Longitudinal measures one evolve-and-recrawl cycle of the
// §7 longitudinal pipeline.
func BenchmarkE10Longitudinal(b *testing.B) {
	p, err := NewPipeline(PipelineConfig{Seed: 9, Scale: 0.002})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Crawl(context.Background(), 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AdvanceDays(7)
		if _, err := p.Crawl(context.Background(), i+1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	a, err := p.Analyze(context.Background(), -1)
	if err != nil {
		b.Fatal(err)
	}
	funded := 0
	for _, c := range a.Companies {
		if c.Funded {
			funded++
		}
	}
	b.ReportMetric(float64(funded), "funded_after")
	b.ReportMetric(float64(p.World.Day), "days")
}

// ---- A1: token rotation ablation ----

// BenchmarkA1TokenRotation measures Twitter augmentation throughput under
// the real 180-calls/15-minute window as the token count grows — the
// paper's distribute-across-machines trick. Simulated time: sleeping
// advances a fake clock instead of wall time.
func BenchmarkA1TokenRotation(b *testing.B) {
	// Scale 0.01 yields ≈700 Twitter profiles — several 180-call windows
	// for a single token, so rotation has something to win.
	world, err := ecosystem.Generate(ecosystem.NewConfig(2, 0.01))
	if err != nil {
		b.Fatal(err)
	}
	var twitterStartups []string
	for _, s := range world.Startups {
		if s.TwitterURL != "" {
			twitterStartups = append(twitterStartups, s.TwitterURL)
		}
	}
	for _, tokens := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tokens=%d", tokens), func(b *testing.B) {
			names := make([]string, tokens)
			for i := range names {
				names[i] = fmt.Sprint("tok", i)
			}
			var mu sync.Mutex
			now := time.Unix(0, 0)
			srv := apiserver.New(world, apiserver.Options{
				Tokens:        names,
				TwitterLimit:  180,
				TwitterWindow: 15 * time.Minute,
				Clock: func() time.Time {
					mu.Lock()
					defer mu.Unlock()
					return now
				},
			})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			var simulated time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				client, err := crawler.NewClient(ts.URL, names)
				if err != nil {
					b.Fatal(err)
				}
				client.Sleep = func(d time.Duration) {
					mu.Lock()
					now = now.Add(d)
					simulated += d
					mu.Unlock()
				}
				for _, url := range twitterStartups {
					username := url[len("https://twitter.com/"):]
					if _, err := client.TwitterUser(context.Background(), username); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(twitterStartups)*b.N), "profiles")
			b.ReportMetric(simulated.Minutes()/float64(b.N), "simulated_wait_min")
		})
	}
}

// ---- A2: planted recovery ablation ----

// BenchmarkA2PlantedRecovery compares detectors on a synthetic planted
// partition, reporting recovery F1 — the bipartite-aware CoDA against the
// projection-based baselines.
func BenchmarkA2PlantedRecovery(b *testing.B) {
	bp, truth := plantedBenchGraph(6, 15, 10, 0.8, 0.05, 3)
	detectors := []community.Detector{
		&community.CoDA{K: 6, Seed: 3},
		&community.BigCLAM{K: 6, Seed: 3},
		&community.LabelProp{Seed: 3},
		&community.Louvain{Seed: 3},
		&community.SBM{K: 6, Seed: 3},
	}
	for _, det := range detectors {
		b.Run(det.Name(), func(b *testing.B) {
			var f1 float64
			for i := 0; i < b.N; i++ {
				a, err := det.Detect(bp)
				if err != nil {
					b.Fatal(err)
				}
				f1 = community.RecoveryScore(truth, a.Investors)
			}
			b.ReportMetric(f1, "recovery_f1")
		})
	}
}

// ---- helpers ----

// plantedTruthIdx maps ground-truth communities into filtered-graph
// indices.
func plantedTruthIdx(p *Pipeline, a *Analysis) [][]int32 {
	var truth [][]int32
	for _, comm := range p.World.Communities {
		var members []int32
		for _, m := range comm.Members {
			id := p.World.Users[m].ID
			if idx, ok := a.Communities.Filtered.LeftIndex(id); ok {
				members = append(members, idx)
			}
		}
		if len(members) >= 3 {
			truth = append(truth, members)
		}
	}
	return truth
}

// investorGraph builds the investment graph of ID-sorted investors, as
// a frozen snapshot's graph is built.
func investorGraph(b *testing.B, investors []core.Investor) *graph.FrozenBipartite {
	rows := make([]graph.AdjacencyRow, len(investors))
	for i, inv := range investors {
		rows[i] = graph.AdjacencyRow{Left: inv.ID, Rights: inv.Investments}
	}
	g, err := graph.FromRows(rows)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// plantedBenchGraph mirrors the community package's planted-graph
// builder for the A2 ablation: investors i0.. and companies c0..,
// numbered by index.
func plantedBenchGraph(k, m, c int, dense, noise float64, seed int64) (*graph.FrozenBipartite, [][]int32) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int32, k*m)
	truth := make([][]int32, k)
	for g := 0; g < k; g++ {
		for i := 0; i < m; i++ {
			inv := g*m + i
			truth[g] = append(truth[g], int32(inv))
			for j := 0; j < c; j++ {
				if rng.Float64() < dense {
					rows[inv] = append(rows[inv], int32(g*c+j))
				}
			}
			for t := 0; t < 2; t++ {
				if rng.Float64() < noise {
					rows[inv] = append(rows[inv], int32(rng.Intn(k*c)))
				}
			}
		}
	}
	investors, companies := make([]string, k*m), make([]string, k*c)
	for i := range investors {
		investors[i] = fmt.Sprint("i", i)
	}
	for j := range companies {
		companies[j] = fmt.Sprint("c", j)
	}
	return graph.FromIndexRows(investors, companies, rows), truth
}

// ---- E11: success prediction (§7) ----

// BenchmarkE11Prediction measures the feature build + train + evaluate
// cycle, reporting held-out AUC.
func BenchmarkE11Prediction(b *testing.B) {
	p, _, a := fixture(b)
	followers, err := core.LoadCompanyFollowerCounts(context.Background(), p.Store, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *core.PredictionResult
	for i := 0; i < b.N; i++ {
		d := core.BuildFeatures(a.Companies, a.Investors, followers)
		res, err = core.RunPrediction(d, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TestAUC, "test_auc")
	b.ReportMetric(res.TestAccuracy, "test_accuracy")
	b.ReportMetric(float64(len(res.Selected)), "features_selected")
}

// ---- E12/E13: longitudinal causality and community dynamics (§7) ----

// BenchmarkE12E13Longitudinal evolves a dedicated world 45 days between
// two crawls, then runs the causality panel and the community-dynamics
// tracker, reporting their headline numbers.
func BenchmarkE12E13Longitudinal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := NewPipeline(PipelineConfig{Seed: 77, Scale: 0.015})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Crawl(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		p.AdvanceDays(45)
		if _, err := p.Crawl(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
		caus, err := core.RunCausality(context.Background(), p.Store, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		k := p.World.Cfg.NumCommunities()
		dyn, err := core.RunDynamics(context.Background(), p.Store, 0, 1, 4, k, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(caus.PanelSize), "panel")
			b.ReportMetric(float64(caus.Converted), "converted")
			b.ReportMetric(caus.ConversionHighDelta*100, "conv_high_pct")
			b.ReportMetric(caus.ConversionLowDelta*100, "conv_low_pct")
			b.ReportMetric(float64(len(dyn.Transition.Matches)), "matched_communities")
			b.ReportMetric(float64(len(dyn.Transition.Formed)), "formed")
			b.ReportMetric(float64(len(dyn.Transition.Dissolved)), "dissolved")
		}
		p.Close()
	}
}
