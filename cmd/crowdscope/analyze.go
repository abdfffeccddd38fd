package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"crowdscope"
	"crowdscope/internal/community"
	"crowdscope/internal/core"
	"crowdscope/internal/parallel"
	"crowdscope/internal/viz"
)

// experiments are the -exp values analyze accepts.
var experiments = []string{"e1", "fig3", "fig4", "fig5", "fig6", "fig7", "e4", "e5", "e9", "e11", "e12", "e13", "all"}

// runAnalyze runs the paper's full evaluation over a fresh end-to-end
// pipeline run (NewPipeline → Crawl → Analyze) and prints every table
// and figure series. -exp picks a single experiment: e1 (dataset
// summary), fig3 (investment CDF), fig4 (shared-size CDFs), fig5
// (community PDF), fig6 (engagement table), fig7 (strong/weak metrics),
// e4 (investor graph), e5 (CoDA), e9 (detector comparison), e11 (success
// prediction), e12 (causality), e13 (community dynamics), all (default).
//
// With -out the same run writes the figure series as CSV files (fig3,
// fig4, fig5) and the Figure 7 drawings as SVGs: the strongest and
// weakest communities by average shared investment size (investors
// blue, companies red, in the -layout) and an overview of the filtered
// investment graph.
func runAnalyze(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := o.flagSet("analyze", "seed", "scale", "out", "workers")
	exp := fs.String("exp", "all", "experiment: "+strings.Join(experiments, ","))
	pairs := fs.Int("pairs", 100000, "global pair-sample size for fig4 (paper: 800000)")
	layout := fs.String("layout", "force", "Figure 7 SVG layout: force (Fruchterman-Reingold) or band (bipartite columns)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(experiments, *exp) {
		return fmt.Errorf("unknown experiment %q (want one of %s)", *exp, strings.Join(experiments, ", "))
	}
	if *layout != "force" && *layout != "band" {
		return fmt.Errorf("unknown layout %q", *layout)
	}
	parallel.SetDefaultWorkers(o.workers)

	// The crawl store is scratch: everything printed or written to -out
	// is derived from it within this run.
	dir, err := os.MkdirTemp("", "crowdscope-analyze-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, err := crowdscope.NewPipeline(crowdscope.PipelineConfig{Seed: o.seed, Scale: o.scale, Workers: o.workers, StoreDir: dir})
	if err != nil {
		return err
	}
	defer p.Close()
	snap, err := p.Crawl(ctx, 0)
	if err != nil {
		return err
	}
	a, err := p.Analyze(ctx, -1)
	if err != nil {
		return err
	}

	plot := func(title string, series []viz.Series) {
		if err := viz.ASCIIPlot(stdout, title, series, 72, 18); err != nil {
			fmt.Fprintf(stdout, "(plot skipped: %v)\n", err)
		}
	}
	// output writes one -out file and reports it; a no-op without -out.
	output := func(name, kind string, write func(io.Writer) error) error {
		if o.out == "" {
			return nil
		}
		if err := writeFile(o.out, name, write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(%s written: %s)\n", kind, strings.TrimSuffix(o.out, "/")+"/"+name)
		return nil
	}
	csv := func(name string, series []viz.Series) error {
		return output(name, "csv", func(w io.Writer) error { return viz.WriteCSV(w, series) })
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	if want("e1") {
		fmt.Fprintln(stdout, "== E1: dataset summary (paper §3) ==")
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
		fmt.Fprintf(stdout, "companies crawled        %d   (paper: 744,036)\n", st.StartupsCrawled)
		fmt.Fprintf(stdout, "users crawled            %d   (paper: 1,109,441)\n", st.UsersCrawled)
		fmt.Fprintf(stdout, "crunchbase profiles      %d   (paper: 10,156)\n", st.CBByLink+st.CBBySearch)
		fmt.Fprintf(stdout, "facebook profiles        %d   (paper: 37,761)\n", st.FacebookProfiles)
		fmt.Fprintf(stdout, "twitter profiles         %d   (paper: 70,563)\n", st.TwitterProfiles)
		fmt.Fprintf(stdout, "investors %.1f%% founders %.1f%% employees %.1f%%   (paper: 4.3 / 18.3 / 44.2)\n",
			float64(inv)/tot*100, float64(fou)/tot*100, float64(emp)/tot*100)
		fmt.Fprintln(stdout)
	}
	if want("fig3") {
		fmt.Fprintln(stdout, "== Figure 3: CDF of investments per investor ==")
		f3 := a.Fig3
		fmt.Fprintf(stdout, "mean %.2f (paper 3.3)  median %.0f (paper 1)  max %d (paper ≈1000 at full scale)\n",
			f3.Mean, f3.Median, f3.Max)
		fmt.Fprintf(stdout, "avg startups followed per investor %.0f (paper 247)\n", f3.MeanFollows)
		if f3.PowerLawAlpha > 0 {
			fmt.Fprintf(stdout, "tail power-law exponent (x>=2): %.2f\n", f3.PowerLawAlpha)
		}
		series := []viz.Series{{Name: "investments", X: f3.CDFX, Y: f3.CDFY}}
		plot("Figure 3: investments per investor (CDF)", series)
		if err := csv("fig3.csv", series); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if want("fig6") {
		fmt.Fprintln(stdout, "== Figure 6: social engagement vs fundraising success ==")
		fmt.Fprintf(stdout, "%-58s %10s %8s %9s\n", "category", "companies", "% all", "% success")
		for _, r := range a.Engagement {
			fmt.Fprintf(stdout, "%-58s %10d %7.2f%% %8.1f%%\n", r.Label, r.Count, r.PctOfAll, r.SuccessPct)
		}
		if lift, err := core.Lift(a.Engagement, "Facebook"); err == nil {
			fmt.Fprintf(stdout, "facebook lift over no-social: %.0fX (paper: 30X)\n", lift)
		}
		if lift, err := core.Lift(a.Engagement, "Twitter"); err == nil {
			fmt.Fprintf(stdout, "twitter lift over no-social: %.0fX (paper: 26X)\n", lift)
		}
		if sig, err := core.EngagementSignificance(a.Companies, a.Engagement); err == nil {
			fmt.Fprintln(stdout, "chi-square vs no-social baseline:")
			for _, s := range sig {
				fmt.Fprintf(stdout, "  %-58s chi2 %8.1f  p %.2g\n", s.Label, s.Chi2, s.P)
			}
		}
		fmt.Fprintln(stdout)
	}
	if want("e4") {
		fmt.Fprintln(stdout, "== E4: investor bipartite graph (paper §5.1) ==")
		g := a.Graph
		fmt.Fprintf(stdout, "investors %d  companies %d  edges %d  (paper: 46,966 / 59,953 / 158,199)\n",
			g.Investors, g.Companies, g.Edges)
		fmt.Fprintf(stdout, "avg investors per company %.2f (paper 2.6)\n", g.AvgInvestorsPerCo)
		for _, row := range g.DegreeShares {
			fmt.Fprintf(stdout, "out-degree >= %d: %.1f%% of investors hold %.1f%% of edges\n",
				row.MinDegree, row.NodeFraction*100, row.EdgeFraction*100)
		}
		fmt.Fprintln(stdout, "(paper: >=3 → 30%/75%, >=4 → 22.2%/68.3%, >=5 → 17.0%/62.0%)")
		fmt.Fprintln(stdout)
	}
	if want("e5") {
		fmt.Fprintln(stdout, "== E5: CoDA communities (paper §5.2) ==")
		fmt.Fprintf(stdout, "communities %d  mean investor size %.1f  (paper: 96 communities, avg 190.2 at full scale)\n",
			a.Communities.Assignment.NumCommunities(), a.Communities.MeanSize)
		// Model selection: the held-out link-prediction procedure that
		// stands behind "we are able to group investors into 96
		// communities".
		k := p.World.Cfg.NumCommunities()
		candidates := []int{k / 2, k, 2 * k}
		if candidates[0] < 2 {
			candidates[0] = 2
		}
		best, aucs, err := community.SelectK(a.Communities.Filtered, candidates, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model selection over K=%v: held-out link AUCs %.3f -> chose K=%d\n",
			candidates, aucs, best)
		fmt.Fprintln(stdout)
	}
	if want("fig4") {
		fmt.Fprintln(stdout, "== Figure 4: shared investment size CDFs ==")
		f4, err := core.RunFig4(a.Communities, 3, *pairs, o.seed)
		if err != nil {
			return err
		}
		series := make([]viz.Series, 0, 4)
		for i, c := range f4.Communities {
			fmt.Fprintf(stdout, "community %d: avg shared %.2f\n", i+1, f4.AvgShared[i])
			series = append(series, viz.Series{Name: c.Name, X: c.X, Y: c.Y})
		}
		series = append(series, viz.Series{Name: f4.Global.Name, X: f4.Global.X, Y: f4.Global.Y})
		fmt.Fprintf(stdout, "global sample: %d pairs, DKW 99%% band ±%.4f (paper: 800,000 pairs, ±0.0196)\n",
			f4.GlobalPairs, f4.DKWEps)
		fmt.Fprintf(stdout, "max shared investment size: %.0f (paper: up to 48)\n", f4.MaxShared)
		plot("Figure 4: shared investment size (CDFs)", series)
		if err := csv("fig4.csv", series); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if want("fig5") {
		fmt.Fprintln(stdout, "== Figure 5: PDF of % companies with >=2 shared investors ==")
		f5, err := core.RunFig5(a.Communities, 2, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "mean over %d communities: %.1f%% (bootstrap 95%% CI %.1f-%.1f; paper: 23.1%%)\n",
			len(f5.Percentages), f5.Mean, f5.MeanCI95[0], f5.MeanCI95[1])
		fmt.Fprintf(stdout, "randomized-community baseline: %.1f%% (paper: 5.8%%)\n", f5.Randomized)
		series := []viz.Series{{Name: "communities", X: f5.PDFX, Y: f5.PDFY}}
		plot("Figure 5: per-community shared-investor percentage (PDF)", series)
		if err := csv("fig5.csv", series); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if want("fig7") {
		fmt.Fprintln(stdout, "== Figure 7: strong vs weak communities ==")
		f7, err := core.RunFig7(a.Communities, 3)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "strong: %d investors, avg shared %.2f, %.1f%% shared companies (paper: 2.1 / 27.9%%)\n",
			len(f7.Strong.Investors), f7.Strong.AvgShared, f7.Strong.SharedPct)
		fmt.Fprintf(stdout, "weak:   %d investors, avg shared %.3f, %.1f%% shared companies (paper: 0.018 / 12.5%%)\n",
			len(f7.Weak.Investors), f7.Weak.AvgShared, f7.Weak.SharedPct)
		if o.out == "" {
			fmt.Fprintln(stdout, "(render SVGs with -out DIR)")
		}
		drawings := []struct {
			name, title string
			c           core.Fig7Community
		}{
			{"strong.svg", fmt.Sprintf("Strong community (avg shared %.2f, %.1f%% shared companies)",
				f7.Strong.AvgShared, f7.Strong.SharedPct), f7.Strong},
			{"weak.svg", fmt.Sprintf("Weak community (avg shared %.3f, %.1f%% shared companies)",
				f7.Weak.AvgShared, f7.Weak.SharedPct), f7.Weak},
		}
		for _, d := range drawings {
			err := output(d.name, "svg", func(w io.Writer) error {
				if *layout == "band" {
					return viz.CommunityBandSVG(w, d.title, d.c.Investors, d.c.Companies, d.c.Edges)
				}
				return viz.CommunitySVG(w, d.title, d.c.Investors, d.c.Companies, d.c.Edges, o.seed)
			})
			if err != nil {
				return err
			}
		}
		// Whole-graph overview rendered straight from the frozen
		// snapshot's CSR columns.
		err = output("overview.svg", "svg", func(w io.Writer) error {
			return viz.BipartiteSVG(w, "Filtered investment graph (first 120 investors)",
				a.Communities.Filtered, 120)
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if want("e11") {
		fmt.Fprintln(stdout, "== E11: success prediction from graph + engagement features (paper §7) ==")
		followers, err := core.LoadCompanyFollowerCounts(ctx, p.Store, -1)
		if err != nil {
			return err
		}
		d := core.BuildFeatures(a.Companies, a.Investors, followers)
		res, err := core.RunPrediction(d, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "test AUC %.3f  accuracy %.3f  strongest feature: %s\n",
			res.TestAUC, res.TestAccuracy, res.TopWeight)
		fmt.Fprintf(stdout, "forward selection picked %v (validation AUC %.3f)\n", res.Selected, res.SelectionAUC)
		fmt.Fprintf(stdout, "5-fold CV AUC: %.3f ± %.3f\n", res.CVMeanAUC, res.CVStdAUC)
		fmt.Fprintln(stdout)
	}
	if want("e12") || want("e13") {
		// Longitudinal experiments need a second snapshot.
		p.AdvanceDays(45)
		if _, err := p.Crawl(ctx, 1); err != nil {
			return err
		}
	}
	if want("e12") {
		fmt.Fprintln(stdout, "== E12: causality analysis over 45 simulated days (paper §7) ==")
		res, err := core.RunCausality(ctx, p.Store, 0, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "panel: %d unfunded companies, %d converted to funded\n", res.PanelSize, res.Converted)
		fmt.Fprintf(stdout, "conversion with above-median engagement growth: %.2f%%\n", res.ConversionHighDelta*100)
		fmt.Fprintf(stdout, "conversion with below-median engagement growth: %.2f%%\n", res.ConversionLowDelta*100)
		fmt.Fprintf(stdout, "point-biserial corr %.3f, chi2 %.2f, p %.4f\n", res.Corr, res.Chi2, res.P)
		fmt.Fprintln(stdout)
	}
	if want("e13") {
		fmt.Fprintln(stdout, "== E13: community dynamics across snapshots (paper §7) ==")
		k := p.World.Cfg.NumCommunities()
		res, err := core.RunDynamics(ctx, p.Store, 0, 1, 4, k, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "communities: %d -> %d\n", res.PrevCommunities, res.CurCommunities)
		fmt.Fprintf(stdout, "events: %v  (merges %d, splits %d)\n", res.Counts, res.Transition.Merges, res.Transition.Splits)
		fmt.Fprintln(stdout)
	}
	if want("e9") {
		fmt.Fprintln(stdout, "== E9: detector comparison (paper §6 baselines + §7 SBM) ==")
		truth := plantedTruth(p, a)
		k := p.World.Cfg.NumCommunities()
		results, err := core.CompareDetectors(a.Communities.Filtered, k, o.seed, truth)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-10s %12s %10s %14s %10s %10s\n", "detector", "communities", "mean size", "top3 shared", "mean pct", "truth F1")
		for _, r := range results {
			fmt.Fprintf(stdout, "%-10s %12d %10.1f %14.2f %9.1f%% %10.2f\n",
				r.Name, r.Communities, r.MeanSize, r.Top3AvgShared, r.MeanPctK2, r.RecoveryF1)
		}
		fmt.Fprintln(stdout)
	}
	return nil
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
