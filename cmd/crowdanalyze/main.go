// Command crowdanalyze runs the paper's full evaluation over a fresh
// end-to-end pipeline run and prints every table and figure series. With
// -exp it runs a single experiment; with -csv it writes the figure series
// as CSV files for external plotting.
//
// Usage:
//
//	crowdanalyze -seed 42 -scale 0.01 [-exp fig6] [-csv out/]
//
// Experiments: e1 (dataset summary), fig3 (investment CDF), fig4
// (shared-size CDFs), fig5 (community PDF), fig6 (engagement table),
// fig7 (strong/weak metrics), e4 (investor graph), e5 (CoDA), e9
// (detector comparison), e11 (success prediction), e12 (causality),
// e13 (community dynamics), all (default).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"crowdscope"
	"crowdscope/internal/community"
	"crowdscope/internal/core"
	"crowdscope/internal/parallel"
	"crowdscope/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crowdanalyze: ")
	seed := flag.Int64("seed", 42, "generation seed")
	scale := flag.Float64("scale", 0.01, "fraction of paper scale")
	exp := flag.String("exp", "all", "experiment: e1,fig3,fig4,fig5,fig6,fig7,e4,e5,e9,e11,e12,e13,all")
	csvDir := flag.String("csv", "", "optional directory for CSV figure series")
	pairs := flag.Int("pairs", 100000, "global pair-sample size for fig4 (paper: 800000)")
	workers := flag.Int("workers", 0, "worker pool size for all parallel kernels (<=0: GOMAXPROCS); results are identical for any value")
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	p, err := crowdscope.NewPipeline(crowdscope.PipelineConfig{Seed: *seed, Scale: *scale, Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	snap, err := p.Crawl(context.Background(), 0)
	if err != nil {
		log.Fatal(err)
	}
	a, err := p.Analyze(context.Background(), -1)
	if err != nil {
		log.Fatal(err)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	if want("e1") {
		fmt.Println("== E1: dataset summary (paper §3) ==")
		st := snap.Stats
		var inv, fou, emp int
		for _, u := range snap.Users {
			switch u.Role {
			case "investor":
				inv++
			case "founder":
				fou++
			case "employee":
				emp++
			}
		}
		tot := float64(len(snap.Users))
		fmt.Printf("companies crawled        %d   (paper: 744,036)\n", st.StartupsCrawled)
		fmt.Printf("users crawled            %d   (paper: 1,109,441)\n", st.UsersCrawled)
		fmt.Printf("crunchbase profiles      %d   (paper: 10,156)\n", st.CBByLink+st.CBBySearch)
		fmt.Printf("facebook profiles        %d   (paper: 37,761)\n", st.FacebookProfiles)
		fmt.Printf("twitter profiles         %d   (paper: 70,563)\n", st.TwitterProfiles)
		fmt.Printf("investors %.1f%% founders %.1f%% employees %.1f%%   (paper: 4.3 / 18.3 / 44.2)\n",
			float64(inv)/tot*100, float64(fou)/tot*100, float64(emp)/tot*100)
		fmt.Println()
	}
	if want("fig3") {
		fmt.Println("== Figure 3: CDF of investments per investor ==")
		f3 := a.Fig3
		fmt.Printf("mean %.2f (paper 3.3)  median %.0f (paper 1)  max %d (paper ≈1000 at full scale)\n",
			f3.Mean, f3.Median, f3.Max)
		fmt.Printf("avg startups followed per investor %.0f (paper 247)\n", f3.MeanFollows)
		if f3.PowerLawAlpha > 0 {
			fmt.Printf("tail power-law exponent (x>=2): %.2f\n", f3.PowerLawAlpha)
		}
		plot("Figure 3: investments per investor (CDF)", []viz.Series{{Name: "investments", X: f3.CDFX, Y: f3.CDFY}})
		writeCSV(*csvDir, "fig3.csv", []viz.Series{{Name: "investments", X: f3.CDFX, Y: f3.CDFY}})
		fmt.Println()
	}
	if want("fig6") {
		fmt.Println("== Figure 6: social engagement vs fundraising success ==")
		fmt.Printf("%-58s %10s %8s %9s\n", "category", "companies", "% all", "% success")
		for _, r := range a.Engagement {
			fmt.Printf("%-58s %10d %7.2f%% %8.1f%%\n", r.Label, r.Count, r.PctOfAll, r.SuccessPct)
		}
		if lift, err := core.Lift(a.Engagement, "Facebook"); err == nil {
			fmt.Printf("facebook lift over no-social: %.0fX (paper: 30X)\n", lift)
		}
		if lift, err := core.Lift(a.Engagement, "Twitter"); err == nil {
			fmt.Printf("twitter lift over no-social: %.0fX (paper: 26X)\n", lift)
		}
		if sig, err := core.EngagementSignificance(a.Companies, a.Engagement); err == nil {
			fmt.Println("chi-square vs no-social baseline:")
			for _, s := range sig {
				fmt.Printf("  %-58s chi2 %8.1f  p %.2g\n", s.Label, s.Chi2, s.P)
			}
		}
		fmt.Println()
	}
	if want("e4") {
		fmt.Println("== E4: investor bipartite graph (paper §5.1) ==")
		g := a.Graph
		fmt.Printf("investors %d  companies %d  edges %d  (paper: 46,966 / 59,953 / 158,199)\n",
			g.Investors, g.Companies, g.Edges)
		fmt.Printf("avg investors per company %.2f (paper 2.6)\n", g.AvgInvestorsPerCo)
		for _, row := range g.DegreeShares {
			fmt.Printf("out-degree >= %d: %.1f%% of investors hold %.1f%% of edges\n",
				row.MinDegree, row.NodeFraction*100, row.EdgeFraction*100)
		}
		fmt.Println("(paper: >=3 → 30%/75%, >=4 → 22.2%/68.3%, >=5 → 17.0%/62.0%)")
		fmt.Println()
	}
	if want("e5") {
		fmt.Println("== E5: CoDA communities (paper §5.2) ==")
		fmt.Printf("communities %d  mean investor size %.1f  (paper: 96 communities, avg 190.2 at full scale)\n",
			a.Communities.Assignment.NumCommunities(), a.Communities.MeanSize)
		// Model selection: the held-out link-prediction procedure that
		// stands behind "we are able to group investors into 96
		// communities".
		k := p.World.Cfg.NumCommunities()
		candidates := []int{k / 2, k, 2 * k}
		if candidates[0] < 2 {
			candidates[0] = 2
		}
		best, aucs, err := community.SelectK(a.Communities.Filtered, candidates, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model selection over K=%v: held-out link AUCs %.3f -> chose K=%d\n",
			candidates, aucs, best)
		fmt.Println()
	}
	if want("fig4") {
		fmt.Println("== Figure 4: shared investment size CDFs ==")
		f4, err := core.RunFig4(a.Communities, 3, *pairs, *seed)
		if err != nil {
			log.Fatal(err)
		}
		series := make([]viz.Series, 0, 4)
		for i, c := range f4.Communities {
			fmt.Printf("community %d: avg shared %.2f\n", i+1, f4.AvgShared[i])
			series = append(series, viz.Series{Name: c.Name, X: c.X, Y: c.Y})
		}
		series = append(series, viz.Series{Name: f4.Global.Name, X: f4.Global.X, Y: f4.Global.Y})
		fmt.Printf("global sample: %d pairs, DKW 99%% band ±%.4f (paper: 800,000 pairs, ±0.0196)\n",
			f4.GlobalPairs, f4.DKWEps)
		fmt.Printf("max shared investment size: %.0f (paper: up to 48)\n", f4.MaxShared)
		plot("Figure 4: shared investment size (CDFs)", series)
		writeCSV(*csvDir, "fig4.csv", series)
		fmt.Println()
	}
	if want("fig5") {
		fmt.Println("== Figure 5: PDF of % companies with >=2 shared investors ==")
		f5, err := core.RunFig5(a.Communities, 2, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mean over %d communities: %.1f%% (bootstrap 95%% CI %.1f-%.1f; paper: 23.1%%)\n",
			len(f5.Percentages), f5.Mean, f5.MeanCI95[0], f5.MeanCI95[1])
		fmt.Printf("randomized-community baseline: %.1f%% (paper: 5.8%%)\n", f5.Randomized)
		plot("Figure 5: per-community shared-investor percentage (PDF)",
			[]viz.Series{{Name: "communities", X: f5.PDFX, Y: f5.PDFY}})
		writeCSV(*csvDir, "fig5.csv", []viz.Series{{Name: "communities", X: f5.PDFX, Y: f5.PDFY}})
		fmt.Println()
	}
	if want("fig7") {
		fmt.Println("== Figure 7: strong vs weak communities ==")
		f7, err := core.RunFig7(a.Communities, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("strong: %d investors, avg shared %.2f, %.1f%% shared companies (paper: 2.1 / 27.9%%)\n",
			len(f7.Strong.Investors), f7.Strong.AvgShared, f7.Strong.SharedPct)
		fmt.Printf("weak:   %d investors, avg shared %.3f, %.1f%% shared companies (paper: 0.018 / 12.5%%)\n",
			len(f7.Weak.Investors), f7.Weak.AvgShared, f7.Weak.SharedPct)
		fmt.Println("(render SVGs with cmd/crowdviz)")
		fmt.Println()
	}
	if want("e11") {
		fmt.Println("== E11: success prediction from graph + engagement features (paper §7) ==")
		followers, err := core.LoadCompanyFollowerCounts(context.Background(), p.Store, -1)
		if err != nil {
			log.Fatal(err)
		}
		d := core.BuildFeatures(a.Companies, a.Investors, followers)
		res, err := core.RunPrediction(d, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("test AUC %.3f  accuracy %.3f  strongest feature: %s\n",
			res.TestAUC, res.TestAccuracy, res.TopWeight)
		fmt.Printf("forward selection picked %v (validation AUC %.3f)\n", res.Selected, res.SelectionAUC)
		fmt.Printf("5-fold CV AUC: %.3f ± %.3f\n", res.CVMeanAUC, res.CVStdAUC)
		fmt.Println()
	}
	if want("e12") || want("e13") {
		// Longitudinal experiments need a second snapshot.
		p.AdvanceDays(45)
		if _, err := p.Crawl(context.Background(), 1); err != nil {
			log.Fatal(err)
		}
	}
	if want("e12") {
		fmt.Println("== E12: causality analysis over 45 simulated days (paper §7) ==")
		res, err := core.RunCausality(context.Background(), p.Store, 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("panel: %d unfunded companies, %d converted to funded\n", res.PanelSize, res.Converted)
		fmt.Printf("conversion with above-median engagement growth: %.2f%%\n", res.ConversionHighDelta*100)
		fmt.Printf("conversion with below-median engagement growth: %.2f%%\n", res.ConversionLowDelta*100)
		fmt.Printf("point-biserial corr %.3f, chi2 %.2f, p %.4f\n", res.Corr, res.Chi2, res.P)
		fmt.Println()
	}
	if want("e13") {
		fmt.Println("== E13: community dynamics across snapshots (paper §7) ==")
		k := p.World.Cfg.NumCommunities()
		res, err := core.RunDynamics(context.Background(), p.Store, 0, 1, 4, k, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("communities: %d -> %d\n", res.PrevCommunities, res.CurCommunities)
		fmt.Printf("events: %v  (merges %d, splits %d)\n", res.Counts, res.Transition.Merges, res.Transition.Splits)
		fmt.Println()
	}
	if want("e9") {
		fmt.Println("== E9: detector comparison (paper §6 baselines + §7 SBM) ==")
		truth := plantedTruth(p, a)
		k := p.World.Cfg.NumCommunities()
		results, err := core.CompareDetectors(a.Communities.Filtered, k, *seed, truth)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %12s %10s %14s %10s %10s\n", "detector", "communities", "mean size", "top3 shared", "mean pct", "truth F1")
		for _, r := range results {
			fmt.Printf("%-10s %12d %10.1f %14.2f %9.1f%% %10.2f\n",
				r.Name, r.Communities, r.MeanSize, r.Top3AvgShared, r.MeanPctK2, r.RecoveryF1)
		}
		fmt.Println()
	}
}

// plantedTruth maps the generator's ground-truth communities into
// filtered-graph indices for recovery scoring.
func plantedTruth(p *crowdscope.Pipeline, a *crowdscope.Analysis) [][]int32 {
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

func plot(title string, series []viz.Series) {
	if err := viz.ASCIIPlot(os.Stdout, title, series, 72, 18); err != nil {
		fmt.Printf("(plot skipped: %v)\n", err)
	}
}

func writeCSV(dir, name string, series []viz.Series) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := viz.WriteCSV(f, series); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(csv written: %s)\n", strings.TrimSuffix(dir, "/")+"/"+name)
}
