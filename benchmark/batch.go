package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crowdscope/internal/community"
	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/graph"
	"crowdscope/internal/parallel"
	"crowdscope/internal/snapshot"
	"crowdscope/internal/store"
)

// minInvestorDegree is the paper's community-detection filter (§5.2).
const minInvestorDegree = 4

// collected is a store filled by the crowdscale collection path.
type collected struct {
	cfg      ecosystem.Config
	dir      string
	st       *store.Store
	gen      *ecosystem.GenStats
	ingested int64
}

// collect runs cmd/crowdscale's first three stages into a fresh store
// under dir: stream-generate the world, ingest it as crawl snapshot 0,
// freeze it shard-at-a-time. The serving workloads build their
// snapshot through the same calls.
func collect(ctx context.Context, tr *tracer, parent spanRef, trace int, dir string, seed int64, scale float64, shards int) (*collected, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("benchmark: open store: %w", err)
	}
	c := &collected{cfg: ecosystem.NewConfig(seed, scale), dir: dir, st: st}
	c.cfg.Shards = shards
	err = tr.call(parent, trace, "ecosystem.GenerateTo", func() error {
		c.gen, err = ecosystem.GenerateTo(ctx, st, c.cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("benchmark: generate: %w", err)
	}
	err = tr.call(parent, trace, "crawler.IngestGenerated", func() error {
		c.ingested, err = crawler.IngestGenerated(ctx, st, 0)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("benchmark: ingest: %w", err)
	}
	err = tr.call(parent, trace, "core.BuildFrozen", func() error {
		_, err := core.BuildFrozen(ctx, st, 0)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("benchmark: freeze: %w", err)
	}
	return c, nil
}

// batchJob is one closed generate→analyse job and what it produced.
type batchJob struct {
	*collected
	fs  *core.FrozenSnapshot
	res *core.AnalyzeResult
	// collectWall runs until the frozen snapshot is loaded; wall is the
	// whole job, analysis included.
	collectWall, wall time.Duration
}

// runBatchJob is cmd/crowdscale as a function. Untraced it calls
// core.Analyze; traced it issues Analyze's kernels one by one, in
// Analyze's order, so each gets its own span.
func runBatchJob(ctx context.Context, tr *tracer, trace int, dir string, seed int64, scale float64, shards, workers int) (*batchJob, error) {
	start := time.Now()
	root := tr.start(noSpan, trace, "job")
	defer root.end()
	c, err := collect(ctx, tr, root, trace, dir, seed, scale, shards)
	if err != nil {
		return nil, err
	}
	job := &batchJob{collected: c}
	err = tr.call(root, trace, "core.LoadFrozenContext", func() error {
		job.fs, err = core.LoadFrozenContext(ctx, c.st, 0)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("benchmark: load frozen: %w", err)
	}
	job.collectWall = time.Since(start)
	budget := core.DefaultBudget()
	budget.Seed = seed
	k := c.cfg.NumCommunities()
	if tr == nil {
		job.res, err = core.Analyze(ctx, job.fs, minInvestorDegree, k, workers, budget)
	} else {
		job.res, err = analyzeTraced(tr, root, trace, job.fs, k, workers, budget)
	}
	if err != nil {
		return nil, fmt.Errorf("benchmark: analyze: %w", err)
	}
	job.wall = time.Since(start)
	return job, nil
}

// analyzeTraced mirrors core.Analyze kernel by kernel.
func analyzeTraced(tr *tracer, parent spanRef, trace int, fs *core.FrozenSnapshot, k, workers int, budget core.Budget) (*core.AnalyzeResult, error) {
	res := &core.AnalyzeResult{Snapshot: fs.Snapshot, Companies: len(fs.Companies), Investors: len(fs.Investors)}
	err := tr.call(parent, trace, "core.EngagementTable", func() error {
		var err error
		res.Engagement, res.Thresholds, err = core.EngagementTable(fs.Companies)
		return err
	})
	if err != nil {
		return nil, err
	}
	sp := tr.start(parent, trace, "core.InvestorGraphStats")
	res.Graph = core.InvestorGraphStats(fs.Graph)
	sp.end()
	sp = tr.start(parent, trace, "core.RunFig3")
	res.Fig3 = core.RunFig3(fs.Investors)
	sp.end()

	sp = tr.start(parent, trace, "graph.FilterLeftMinDegree")
	detect := graph.FilterLeftMinDegree(fs.Graph, minInvestorDegree)
	detect.SortAdjacency()
	res.FilteredEdges = detect.NumEdges()
	if budget.CommunityEdgeLimit > 0 && detect.NumEdges() > budget.CommunityEdgeLimit {
		detect = graph.CapLeftDegree(detect, budget.MaxLeftDegree, budget.Seed)
		detect.SortAdjacency()
		res.CommunitiesSampled = true
	}
	sp.end()

	coda := &community.CoDA{K: k, Seed: budget.Seed, Workers: workers}
	err = tr.call(parent, trace, "community.CoDA.Detect", func() error {
		a, err := coda.Detect(detect)
		if err != nil {
			return err
		}
		res.Communities = &core.CommunitiesResult{Assignment: a, Filtered: detect, MeanSize: a.MeanInvestorSize()}
		return nil
	})
	return res, err
}

// check holds the job against what the generator promised and what the
// paper reports.
func (j *batchJob) check(o *outcome, sz sizes) {
	cfg := j.cfg
	o.check(j.gen.Startups == int64(cfg.NumStartups()), "generated %d startups, config says %d", j.gen.Startups, cfg.NumStartups())
	o.check(j.gen.Users == int64(cfg.NumUsers()), "generated %d users, config says %d", j.gen.Users, cfg.NumUsers())
	o.check(len(j.fs.Companies) == cfg.NumStartups(), "frozen %d companies, config says %d", len(j.fs.Companies), cfg.NumStartups())
	o.check(j.res.Companies == cfg.NumStartups(), "analysed %d companies, config says %d", j.res.Companies, cfg.NumStartups())
	o.check(!j.res.CommunitiesSampled, "community detection fell back to the sampled estimator")
	n := 0
	if j.res.Communities != nil {
		n = j.res.Communities.Assignment.NumCommunities()
	}
	o.check(n > 0, "no communities detected")
	o.check(j.res.Fig3.Median >= 1 && j.res.Fig3.Median <= sz.fig3MedianHi, "Fig. 3 median investments %g (paper 1)", j.res.Fig3.Median)
	o.check(j.res.Fig3.Mean >= sz.fig3MeanLo && j.res.Fig3.Mean <= sz.fig3MeanHi,
		"Fig. 3 mean investments %.3f outside [%g, %g] (paper 3.3)", j.res.Fig3.Mean, sz.fig3MeanLo, sz.fig3MeanHi)
}

func (j *batchJob) entities() float64 { return float64(j.cfg.NumStartups() + j.cfg.NumUsers()) }

// jobSeed gives every job of a run a world of its own. Community
// detection runs until it converges, which takes two to three times
// longer on some worlds than on others; averaging a run's jobs over
// different worlds keeps one slow-converging seed from being the run.
func jobSeed(seed int64, job int) int64 { return seed*64 + int64(job) }

// batchPipeline is the paper's offline study as one closed job, run
// again and again for the measuring time.
func batchPipeline(e *env) error {
	workers := runtime.NumCPU() // nproc: the analysis kernels' worker pool
	parallel.SetDefaultWorkers(workers)
	sz := e.sz

	// Set-up is a warm-up job at a tenth of the size: it pages the
	// program in and grows the heap, so the first timed job is not the
	// one that pays for a cold process.
	var setups []float64
	for i := 0; i < sz.setupRepeats; i++ {
		dir := filepath.Join(e.scratch, fmt.Sprintf("warm-%d", i))
		t0 := time.Now()
		if _, err := runBatchJob(e.ctx, nil, 0, dir, e.seed, sz.batchScale/10, sz.batchShards, workers); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return fmt.Errorf("benchmark: remove warm-up store: %w", err)
		}
	}
	e.out.e2e["setup_s"] = median(setups)

	// Untraced jobs give the end-to-end numbers: one before a traced job,
	// otherwise as many as the measuring time holds and at least two, so
	// that a slow machine, where one job outlasts the measuring time,
	// still averages over two worlds.
	var walls, collects []float64
	var last *batchJob
	began := time.Now()
	for i := 0; i == 0 || (!e.traced && (i == 1 || time.Since(began).Seconds() < e.seconds)); i++ {
		if last != nil {
			if err := os.RemoveAll(last.dir); err != nil {
				return fmt.Errorf("benchmark: remove job store: %w", err)
			}
		}
		job, err := runBatchJob(e.ctx, nil, i, filepath.Join(e.scratch, fmt.Sprintf("job-%d", i)), jobSeed(e.seed, i), sz.batchScale, sz.batchShards, workers)
		if err != nil {
			return err
		}
		job.check(e.out, sz)
		walls = append(walls, job.wall.Seconds())
		collects = append(collects, job.collectWall.Seconds())
		last = job
	}
	bytes, files, err := diskUsage(last.dir)
	if err != nil {
		return fmt.Errorf("benchmark: measure store: %w", err)
	}
	e.out.e2e["wall_s"] = mean(walls)
	e.out.e2e["store_bytes_per_entity"] = float64(bytes) / last.entities()
	// What this workload's user waits for first is a queryable frozen
	// snapshot: generate → ingest → freeze → load. That part does the
	// same amount of work on every world, unlike the analysis, so it
	// carries the latency and goodput readings.
	// A handful of jobs supports no percentile: the mean stands in for
	// the median, the slowest job for the tail.
	collect := mean(collects)
	e.out.e2e["lat_p50_ms"] = 1000 * collect
	e.out.e2e["lat_p90_ms"] = 1000 * quantile(sorted(collects), 1)
	e.out.e2e["goodput_qps"] = last.entities() / collect
	e.out.layer["store.bytes_on_disk"] = float64(bytes)
	e.out.layer["store.files"] = float64(files)
	e.out.layer["harness.samples"] = float64(len(walls))

	if e.traced {
		if err := batchTraced(e, last, workers); err != nil {
			return err
		}
	}
	e.out.e2e["peak_rss_mb"] = peakRSSMB()
	return os.RemoveAll(last.dir)
}

// batchTraced repeats the job with a span around every layer call and
// then probes the artifact codecs and the store one call at a time.
func batchTraced(e *env, untraced *batchJob, workers int) error {
	sz, m := e.sz, e.out.layer
	dir := filepath.Join(e.scratch, "job-traced")
	job, err := runBatchJob(e.ctx, e.tr, 0, dir, jobSeed(e.seed, 0), sz.batchScale, sz.batchShards, workers)
	if err != nil {
		return err
	}
	job.check(e.out, sz)
	m["harness.trace_overhead_pct"] = 100 * (job.wall.Seconds() - untraced.wall.Seconds()) / untraced.wall.Seconds()
	m["harness.trace_coverage_pct"] = coveragePct(e.tr.spans, "job")

	by := secondsByName(e.tr.spans)
	m["ecosystem.generate_s"] = by["ecosystem.GenerateTo"]
	m["crawler.ingest_s"] = by["crawler.IngestGenerated"]
	m["crawler.ingest_records"] = float64(job.ingested)
	m["core.freeze_s"] = by["core.BuildFrozen"]
	m["core.load_frozen_s"] = by["core.LoadFrozenContext"]
	m["core.engagement_s"] = by["core.EngagementTable"]
	m["core.graph_stats_s"] = by["core.InvestorGraphStats"]
	m["core.fig3_s"] = by["core.RunFig3"]
	m["graph.filter_s"] = by["graph.FilterLeftMinDegree"]
	m["community.coda_s"] = by["community.CoDA.Detect"]
	m["community.coda_communities"] = float64(job.res.Communities.Assignment.NumCommunities())
	m["parallel.workers"] = float64(parallel.Default().Workers())
	return probeArtifacts(e, job.st, job.fs, crawler.NSUsers)
}

// probeArtifacts times the codec and store calls that BuildFrozen and a
// replica's Refresh make internally, one public call each: they are
// invisible from outside those functions until tracing moves into the
// program.
func probeArtifacts(e *env, st *store.Store, fs *core.FrozenSnapshot, scanNS string) error {
	m := e.out.layer
	timed := func(f func() error) (time.Duration, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	}
	var blob, idxBlob []byte
	took, err := timed(func() (err error) { blob, err = core.EncodeFrozen(fs); return })
	if err != nil {
		return fmt.Errorf("benchmark: probe encode frozen: %w", err)
	}
	m["core.encode_frozen_s"] = took.Seconds()
	m["core.frozen_bytes"] = float64(len(blob))
	took, err = timed(func() error { _, err := core.DecodeFrozen(blob); return err })
	if err != nil {
		return fmt.Errorf("benchmark: probe decode frozen: %w", err)
	}
	m["core.decode_frozen_s"] = took.Seconds()
	took, err = timed(func() (err error) { idxBlob, err = core.EncodeIndexes(fs); return })
	if err != nil {
		return fmt.Errorf("benchmark: probe encode indexes: %w", err)
	}
	m["index.encode_s"] = took.Seconds()
	m["index.bytes"] = float64(len(idxBlob))
	took, err = timed(func() error { _, err := core.LoadIndex(st, fs.Snapshot); return err })
	if err != nil {
		return fmt.Errorf("benchmark: probe load index: %w", err)
	}
	m["index.load_ms"] = ms(took)

	took, err = timed(func() error { _, _, err := st.GetBlob(core.FrozenNamespace(fs.Snapshot)); return err })
	if err != nil {
		return fmt.Errorf("benchmark: probe get blob: %w", err)
	}
	m["store.get_blob_ms"] = ms(took)
	// The put goes to a store of its own so the measured store's bytes
	// stay what the workload wrote.
	putStore, err := store.Open(filepath.Join(e.scratch, "probe-put"))
	if err != nil {
		return fmt.Errorf("benchmark: probe store: %w", err)
	}
	took, err = timed(func() error { return putStore.PutBlob("probe/frozen", snapshot.FormatVersion, blob) })
	if err != nil {
		return fmt.Errorf("benchmark: probe put blob: %w", err)
	}
	m["store.put_blob_ms"] = ms(took)

	var records int64
	took, err = timed(func() error {
		return st.ScanContext(e.ctx, scanNS, func([]byte) error { records++; return nil })
	})
	if err != nil {
		return fmt.Errorf("benchmark: probe scan %s: %w", scanNS, err)
	}
	if records > 0 {
		m["store.scan_ns_per_record"] = float64(took.Nanoseconds()) / float64(records)
	}
	return nil
}
