// Command crowdscale runs the out-of-core pipeline at (up to) paper
// scale: stream-generate the world into a sharded store, ingest it as a
// crawl snapshot, freeze it shard-at-a-time into the columnar artifact,
// and run the budgeted analysis suite. It reports wall-clock and peak
// RSS (VmHWM) per stage as JSON; the repository benchmark's
// batch_pipeline workload (benchmark/README.md) measures the same path.
//
// At -scale 1 this is the paper's dataset: 744,036 companies and
// 1,109,441 users. The HTTP crawler is infeasible at that size (it
// would simulate tens of millions of requests), so collection is the
// generate→ingest path; the crawler itself stays validated end-to-end
// at small scale by the package tests.
//
// Usage:
//
//	crowdscale -scale 1 -shards 16 -dir /tmp/paperstore -json bench.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
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

type runResult struct {
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("crowdscale: ")
	seed := flag.Int64("seed", 42, "generation seed")
	scale := flag.Float64("scale", 1.0, "fraction of paper scale (1.0 = 744,036 companies / 1,109,441 users)")
	shards := flag.Int("shards", 16, "store shard count for every namespace")
	dir := flag.String("dir", "", "store directory (default: a fresh temp dir, removed on success)")
	jsonOut := flag.String("json", "", "write the run result as JSON to this file (default stdout only)")
	workers := flag.Int("workers", 0, "worker pool size (<=0: GOMAXPROCS)")
	edgeLimit := flag.Int("community-edge-limit", core.DefaultBudget().CommunityEdgeLimit, "exact community detection up to this many filtered edges; 0 = always exact")
	maxDeg := flag.Int("max-left-degree", core.DefaultBudget().MaxLeftDegree, "per-investor degree cap in the sampled regime")
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	storeDir := *dir
	if storeDir == "" {
		d, err := os.MkdirTemp("", "crowdscale-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(d)
		storeDir = d
	}
	st, err := store.Open(storeDir)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	cfg := ecosystem.NewConfig(*seed, *scale)
	cfg.Shards = *shards
	res := runResult{Scale: *scale, Seed: *seed, Shards: *shards,
		Companies: cfg.NumStartups(), Users: cfg.NumUsers()}
	start := time.Now()
	stage := func(name string, f func() error) {
		t0 := time.Now()
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		s := stageResult{Name: name, Seconds: time.Since(t0).Seconds(), PeakRSSMB: peakRSSMB()}
		res.Stages = append(res.Stages, s)
		log.Printf("%-8s %8.1fs  peak rss %7.0f MB", name, s.Seconds, s.PeakRSSMB)
	}

	stage("generate", func() error {
		_, err := ecosystem.GenerateTo(ctx, st, cfg)
		return err
	})
	stage("crawl", func() error {
		n, err := crawler.IngestGenerated(ctx, st, 0)
		res.Ingested = n
		return err
	})
	stage("freeze", func() error {
		_, err := core.BuildFrozen(ctx, st, 0)
		return err
	})
	stage("analyze", func() error {
		fs, err := core.LoadFrozenContext(ctx, st, 0)
		if err != nil {
			return err
		}
		budget := core.Budget{CommunityEdgeLimit: *edgeLimit, MaxLeftDegree: *maxDeg, Seed: *seed}
		a, err := core.Analyze(ctx, fs, 4, cfg.NumCommunities(), *workers, budget)
		if err != nil {
			return err
		}
		res.AnalyzeInvestors = a.Investors
		res.FilteredEdges = a.FilteredEdges
		res.Communities = a.Communities.Assignment.NumCommunities()
		res.CommunitiesSampled = a.CommunitiesSampled
		res.Fig3Mean = a.Fig3.Mean
		return nil
	})
	res.TotalSeconds = time.Since(start).Seconds()
	res.PeakRSSMB = peakRSSMB()

	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(raw))
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
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
