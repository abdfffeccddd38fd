package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/parallel"
	"crowdscope/internal/store"
)

type stageResult struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// PeakRSSMB is the process high-water mark (VmHWM) at stage end; it
	// is monotone over the run, so the last stage reports the overall
	// peak.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

type scaleResult struct {
	Scale     float64       `json:"scale"`
	Seed      int64         `json:"seed"`
	Shards    int           `json:"shards"`
	Companies int           `json:"companies"`
	Users     int           `json:"users"`
	Ingested  int64         `json:"ingested_records"`
	Stages    []stageResult `json:"stages"`

	AnalyzeInvestors   int     `json:"analyze_investors"`
	FilteredEdges      int     `json:"filtered_edges"`
	Communities        int     `json:"communities"`
	CommunitiesSampled bool    `json:"communities_sampled"`
	Fig3Mean           float64 `json:"fig3_mean"`
	PeakRSSMB          float64 `json:"peak_rss_mb"`
	TotalSeconds       float64 `json:"total_seconds"`
}

// runScale runs the out-of-core pipeline at (up to) paper scale:
// stream-generate the world into a sharded store, ingest it as a crawl
// snapshot, freeze it shard-at-a-time into the columnar artifact, and
// run the budgeted analysis suite. It prints wall-clock and peak RSS
// (VmHWM) per stage as JSON; the repository benchmark's batch_pipeline
// workload (benchmark/README.md) measures the same path.
//
// At -scale 1 this is the paper's dataset: 744,036 companies and
// 1,109,441 users. The HTTP crawler is infeasible at that size (it
// would simulate tens of millions of requests), so collection is the
// generate→ingest path; the crawler itself stays validated end-to-end
// at small scale by the package tests. Without -store the run uses a
// temp dir, removed on success.
func runScale(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := o.flagSet("scale", "seed", "scale", "store", "workers")
	shards := fs.Int("shards", 16, "store shard count for every namespace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	parallel.SetDefaultWorkers(o.workers)

	dir, scratch := o.store, o.store == ""
	if scratch {
		d, err := os.MkdirTemp("", "crowdscope-scale-*")
		if err != nil {
			return err
		}
		dir = d
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}

	cfg := ecosystem.NewConfig(o.seed, o.scale)
	cfg.Shards = *shards
	res := scaleResult{Scale: o.scale, Seed: o.seed, Shards: *shards,
		Companies: cfg.NumStartups(), Users: cfg.NumUsers()}
	stages := []struct {
		name string
		run  func() error
	}{
		{"generate", func() error {
			_, err := ecosystem.GenerateTo(ctx, st, cfg)
			return err
		}},
		{"crawl", func() error {
			n, err := crawler.IngestGenerated(ctx, st, 0)
			res.Ingested = n
			return err
		}},
		{"freeze", func() error {
			_, err := core.BuildFrozen(ctx, st, 0)
			return err
		}},
		{"analyze", func() error {
			frozen, err := core.LoadFrozenContext(ctx, st, 0)
			if err != nil {
				return err
			}
			budget := core.DefaultBudget()
			budget.Seed = o.seed
			a, err := core.Analyze(ctx, frozen, 4, cfg.NumCommunities(), o.workers, budget)
			if err != nil {
				return err
			}
			res.AnalyzeInvestors = a.Investors
			res.FilteredEdges = a.FilteredEdges
			res.Communities = a.Communities.Assignment.NumCommunities()
			res.CommunitiesSampled = a.CommunitiesSampled
			res.Fig3Mean = a.Fig3.Mean
			return nil
		}},
	}
	start := time.Now()
	for _, s := range stages {
		t0 := time.Now()
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r := stageResult{Name: s.name, Seconds: time.Since(t0).Seconds(), PeakRSSMB: peakRSSMB()}
		res.Stages = append(res.Stages, r)
		log.Printf("%-8s %8.1fs  peak rss %7.0f MB", r.Name, r.Seconds, r.PeakRSSMB)
	}
	res.TotalSeconds = time.Since(start).Seconds()
	res.PeakRSSMB = peakRSSMB()

	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(raw))
	if scratch {
		return os.RemoveAll(dir)
	}
	return nil
}

// peakRSSMB reads the process peak resident set (VmHWM) from
// /proc/self/status; 0 on platforms without procfs.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
