package main

import (
	"context"
	"fmt"
	"io"

	"crowdscope"
	"crowdscope/internal/parallel"
	"crowdscope/internal/store"
)

// runCrawl runs the full collection pipeline: it generates a world,
// serves it through the simulated AngelList/CrunchBase/Facebook/Twitter
// APIs, crawls everything over HTTP (BFS + augmentation) and persists
// the snapshots into -store.
//
// With -snapshots > 1 the world evolves -days simulated days between
// crawls, producing the longitudinal dataset of the paper's Section 7.
// Each snapshot's crawl appends a checkpoint record to the store after
// every BFS round and augmentation batch, holding what that step
// collected. -resume folds those records and continues an interrupted
// run from where the last one left off, skipping every snapshot whose
// frozen artifact is already committed. -fault-rate injects the
// faultConfig mix, whose schedule replays exactly for a given
// -fault-seed.
func runCrawl(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := o.flagSet("crawl", "seed", "scale", "store", "workers")
	faultRate := fs.Float64("fault-rate", 0, "deterministic per-kind API fault rate [0,0.2)")
	faultSeed := fs.Int64("fault-seed", 1, "fault schedule seed")
	snapshots := fs.Int("snapshots", 1, "number of crawl snapshots")
	days := fs.Int("days", 7, "simulated days between snapshots")
	resume := fs.Bool("resume", false, "resume the crawl from its latest checkpoint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := o.storeDir()
	if err != nil {
		return err
	}
	parallel.SetDefaultWorkers(o.workers)
	p, err := crowdscope.NewPipeline(crowdscope.PipelineConfig{
		Seed:       o.seed,
		Scale:      o.scale,
		StoreDir:   dir,
		Workers:    o.workers,
		Faults:     faultConfig(*faultRate, *faultSeed),
		Checkpoint: true,
		Resume:     *resume,
	})
	if err != nil {
		return err
	}
	defer p.Close()

	for s := 0; s < *snapshots; s++ {
		snap, err := p.Crawl(ctx, s)
		if err != nil {
			return err
		}
		st := snap.Stats
		fmt.Fprintf(stdout, "snapshot %d: %d startups, %d users in %d BFS rounds\n",
			s, st.StartupsCrawled, st.UsersCrawled, st.Rounds)
		fmt.Fprintf(stdout, "  crunchbase: %d by link, %d by search, %d ambiguous, %d missing\n",
			st.CBByLink, st.CBBySearch, st.CBAmbiguous, st.CBMissing)
		fmt.Fprintf(stdout, "  facebook %d, twitter %d profiles\n", st.FacebookProfiles, st.TwitterProfiles)
		fmt.Fprintf(stdout, "  http: %d requests, %d retries, %d body re-fetches, %d rate-limit hits\n",
			st.Client.Requests, st.Client.Retries, st.Client.BodyRetries, st.Client.RateLimitHits)
		if st.Resumed {
			fmt.Fprintf(stdout, "  resumed from checkpoint (%d checkpoints over the crawl's lifetime)\n", st.Checkpoints)
		}
		if f := p.Server.FaultStats(); f.Total() > 0 {
			fmt.Fprintf(stdout, "  faults injected: %d 5xx, %d 429, %d slow, %d truncated, %d resets\n",
				f.ServerErrors, f.RateLimits, f.Slows, f.Truncates, f.Resets)
		}
		if s+1 < *snapshots {
			p.AdvanceDays(*days)
			fmt.Fprintf(stdout, "  world advanced %d days\n", *days)
		}
	}
	for _, ns := range p.Store.Namespaces() {
		stat, err := p.Store.Stats(ns)
		if err != nil {
			return err
		}
		if stat.Kind == store.KindBlob {
			fmt.Fprintf(stdout, "store %-22s     frozen blob  %8.1f KiB\n",
				ns, float64(stat.Bytes)/1024)
			continue
		}
		fmt.Fprintf(stdout, "store %-22s %8d records  %8.1f KiB  %d segments\n",
			ns, stat.Records, float64(stat.Bytes)/1024, stat.Segments)
	}
	return nil
}
