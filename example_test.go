package crowdscope_test

import (
	"context"
	"fmt"
	"log"

	"crowdscope"
	"crowdscope/internal/core"
	"crowdscope/internal/ecosystem"
)

// Example runs the smallest end-to-end pipeline: generate a world, crawl
// it through the simulated APIs, and inspect the headline analysis.
func Example() {
	p, err := crowdscope.NewPipeline(crowdscope.PipelineConfig{Seed: 1, Scale: 0.001})
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
	fmt.Println("crawl complete:", snap.Stats.StartupsCrawled == len(p.World.Startups))
	fmt.Println("engagement rows:", len(a.Engagement))
	fmt.Println("median investments:", a.Fig3.Median)
	// Output:
	// crawl complete: true
	// engagement rows: 11
	// median investments: 1
}

// ExampleNewPipelineFromWorld runs the Figure 6 engagement study twice:
// on a world calibrated to the paper, where social presence matters, and
// on a counterfactual world built from a mutated generator config, where
// every category is set to succeed at the same rate and engagement gives
// no edge — the Facebook lift falls from 53X to sampling noise. The
// pipeline crawls and tabulates the customized world like any other.
func ExampleNewPipelineFromWorld() {
	flatten := func(c *ecosystem.Config) {
		c.SuccessNone = 0.015
		c.SuccessFBOnly = 0.015
		c.SuccessTWOnly = 0.015
		c.SuccessBoth = 0.015
		c.EngagementLift = 1.0
		c.VideoLift = 1.0
	}
	for _, study := range []struct {
		name   string
		mutate func(*ecosystem.Config)
	}{
		{"calibrated", nil},
		{"counterfactual", flatten},
	} {
		cfg := ecosystem.NewConfig(7, 0.003)
		if study.mutate != nil {
			study.mutate(&cfg)
		}
		world, err := ecosystem.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := engagement(world)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n", study.name)
		for _, r := range rows[:4] {
			fmt.Printf("%-24s %5d companies %5.1f%% funded\n", r.Label, r.Count, r.SuccessPct)
		}
		lift, err := core.Lift(rows, "Facebook")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("facebook lift over no social presence: %.1fX\n", lift)
	}
	// Output:
	// == calibrated ==
	// No social media presence  2002 companies   0.3% funded
	// Facebook                   113 companies  18.6% funded
	// Twitter                    222 companies  16.7% funded
	// Facebook and Twitter       105 companies  20.0% funded
	// facebook lift over no social presence: 53.2X
	// == counterfactual ==
	// No social media presence  2002 companies   1.3% funded
	// Facebook                   113 companies   2.7% funded
	// Twitter                    222 companies   3.6% funded
	// Facebook and Twitter       105 companies   2.9% funded
	// facebook lift over no social presence: 2.0X
}

// engagement crawls world through the simulated APIs and returns its
// Figure 6 table.
func engagement(world *ecosystem.World) ([]core.EngagementRow, error) {
	p, err := crowdscope.NewPipelineFromWorld(world, crowdscope.PipelineConfig{Seed: 7})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	ctx := context.Background()
	if _, err := p.Crawl(ctx, 0); err != nil {
		return nil, err
	}
	companies, err := core.LoadCompanies(ctx, p.Store, -1)
	if err != nil {
		return nil, err
	}
	rows, _, err := core.EngagementTable(companies)
	return rows, err
}

// ExamplePipeline_AdvanceDays is the paper's §7 longitudinal plan: crawl
// the world, let it evolve for a month, crawl again. Funding events and
// investment edges accumulate from snapshot to snapshot.
func ExamplePipeline_AdvanceDays() {
	p, err := crowdscope.NewPipeline(crowdscope.PipelineConfig{Seed: 5, Scale: 0.002})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	fmt.Printf("%-8s %4s %7s %10s %9s\n", "snapshot", "day", "funded", "inv edges", "mean inv")
	for s := 0; s < 4; s++ {
		if _, err := p.Crawl(ctx, s); err != nil {
			log.Fatal(err)
		}
		companies, err := core.LoadCompanies(ctx, p.Store, s)
		if err != nil {
			log.Fatal(err)
		}
		investors, err := core.LoadInvestors(ctx, p.Store, s)
		if err != nil {
			log.Fatal(err)
		}
		funded, edges := 0, 0
		for _, c := range companies {
			if c.Funded {
				funded++
			}
		}
		for _, inv := range investors {
			edges += len(inv.Investments)
		}
		fmt.Printf("%-8d %4d %7d %10d %9.2f\n", s, p.World.Day, funded, edges, core.RunFig3(investors).Mean)
		if s < 3 {
			p.AdvanceDays(30)
		}
	}
	// Output:
	// snapshot  day  funded  inv edges  mean inv
	// 0           0      28        215      2.56
	// 1          30      28        245      2.92
	// 2          60      29        275      3.27
	// 3          90      30        305      3.63
}
