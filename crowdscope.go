// Package crowdscope is a complete, self-contained reproduction of
// "Collection, Exploration and Analysis of Crowdfunding Social Networks"
// (Cheng et al., ExploreDB'16): an extensible exploratory platform that
// collects crowdfunding social-network data from simulated AngelList,
// CrunchBase, Facebook and Twitter APIs, stores it in an append-only JSON
// store, merges it by company into a frozen columnar snapshot, detects
// investor communities with CoDA, and quantifies herd behaviour with the
// paper's shared-investment metrics.
//
// The root package offers the end-to-end Pipeline used by
// cmd/crowdscope, the package examples and the benchmarks: generate a
// calibrated synthetic world, serve it through the simulated web APIs,
// crawl it honestly over HTTP, persist the crawl, freeze it, and run
// every analysis of the paper's evaluation over the frozen snapshot. There is one route from crawled records to that
// snapshot (DESIGN.md §8); the only choice on it — commit a round as a
// delta onto the previous snapshot or freeze it from the store — is made
// by Crawl from what it can observe. Each stage is also available
// separately through the internal packages for callers inside this
// module.
package crowdscope

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/store"
)

// PipelineConfig parameterizes an end-to-end run.
type PipelineConfig struct {
	// Seed drives every stochastic choice in the run.
	Seed int64
	// Scale is the fraction of the paper's dataset size to simulate
	// (1.0 = 744,036 startups). Typical: 0.01-0.05.
	Scale float64
	// StoreDir is where crawled JSON is persisted. Empty uses an
	// in-process temporary directory owned by the Pipeline.
	StoreDir string
	// Tokens are the simulated API access tokens the crawler rotates
	// across (the paper distributes its Twitter crawl over several
	// machines/tokens). Default: 3 tokens.
	Tokens []string
	// Workers bounds crawler parallelism and the analysis kernels'
	// worker pool. Default 8 for the crawler; <= 0 leaves the analysis
	// on the process-default pool. Analysis results are bit-identical
	// for every worker count.
	Workers int
	// Faults configures the deterministic fault injector (5xx, 429
	// bursts, slow responses, truncated bodies, connection resets); a
	// given FaultConfig seed replays the exact same fault schedule.
	Faults *apiserver.FaultConfig
	// Checkpoint persists crawl progress after every BFS round and
	// augmentation batch so interrupted crawls can resume.
	Checkpoint bool
	// Resume continues the next Crawl from its latest checkpoint
	// (implies Checkpoint).
	Resume bool
}

// twitterLimit lifts the simulated Twitter rate window out of the
// pipeline's way: it runs in simulated time. The token-rotation
// ablation reinstates the real 180-calls/15-minute window against a
// fake clock on its own API server.
const twitterLimit = 1 << 30

// Pipeline owns one generated world, its simulated API server, and the
// crawled store. It holds no crawl between rounds: a round's delta is
// computed from that round's crawl and the previous frozen snapshot
// alone, so the snapshot Crawl returns is the caller's to keep or drop.
type Pipeline struct {
	Config PipelineConfig
	World  *ecosystem.World
	Server *apiserver.Server
	Store  *store.Store

	ts     *httptest.Server
	client *crawler.Client

	// DeltaFallbacks counts rounds whose delta commit failed and was
	// recovered by freezing the round from the store (e.g. a base
	// snapshot the delta does not apply to).
	DeltaFallbacks int
}

// NewPipeline generates the world, starts the in-process API server and
// opens the store. Callers must Close the pipeline.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.01
	}
	world, err := ecosystem.Generate(ecosystem.NewConfig(cfg.Seed, cfg.Scale))
	if err != nil {
		return nil, err
	}
	return NewPipelineFromWorld(world, cfg)
}

// NewPipelineFromWorld wraps an already-generated (possibly customized)
// world with the API server, crawler client and store. Callers must Close
// the pipeline.
func NewPipelineFromWorld(world *ecosystem.World, cfg PipelineConfig) (*Pipeline, error) {
	cfg.Scale = world.Cfg.Scale
	if len(cfg.Tokens) == 0 {
		cfg.Tokens = []string{"token-a", "token-b", "token-c"}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	srv := apiserver.New(world, apiserver.Options{
		Tokens:       cfg.Tokens,
		Faults:       cfg.Faults,
		TwitterLimit: twitterLimit,
	})
	ts := httptest.NewServer(srv.Handler())
	client, err := crawler.NewClient(ts.URL, cfg.Tokens)
	if err != nil {
		ts.Close()
		return nil, err
	}
	dir := cfg.StoreDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "crowdscope-store-*")
		if err != nil {
			ts.Close()
			return nil, fmt.Errorf("crowdscope: temp store: %w", err)
		}
	}
	st, err := store.Open(dir)
	if err != nil {
		ts.Close()
		return nil, err
	}
	return &Pipeline{
		Config: cfg,
		World:  world,
		Server: srv,
		Store:  st,
		ts:     ts,
		client: client,
	}, nil
}

// BaseURL returns the simulated API endpoint.
func (p *Pipeline) BaseURL() string { return p.ts.URL }

// Crawl runs a full collection (BFS + augmentation) and persists it as
// the next snapshot, returning the crawl summary. With Checkpoint (or
// Resume) configured, progress is checkpointed into a per-snapshot
// namespace and a resumed crawl continues where the last one stopped.
//
// Every round ends with its frozen/snap-N artifact committed. Round 0,
// and any round whose previous artifact is missing, freezes from the
// persisted records (core.BuildFrozen); later rounds commit a
// frozen/delta-N artifact onto the previous frozen snapshot — the same
// bytes, without re-reading the store — and fall back to the freeze,
// counted in DeltaFallbacks, if that commit fails. Interrupted delta
// commits left by a crash are completed first via core.RecoverChain.
func (p *Pipeline) Crawl(ctx context.Context, snapshot int) (*crawler.Snapshot, error) {
	if _, err := core.RecoverChain(ctx, p.Store); err != nil {
		return nil, fmt.Errorf("crowdscope: recover snapshot chain: %w", err)
	}
	cr := &crawler.Crawler{Client: p.client, Workers: p.Config.Workers}
	alreadyPersisted := false
	if p.Config.Checkpoint || p.Config.Resume {
		ns := fmt.Sprintf("checkpoint/snap-%03d", snapshot)
		cr.Checkpoint = &crawler.CheckpointConfig{
			Store:     p.Store,
			Namespace: ns,
			Resume:    p.Config.Resume,
		}
		if p.Config.Resume {
			if cp, ok, err := crawler.LoadCheckpoint(ctx, p.Store, ns); err != nil {
				return nil, err
			} else if ok && cp.Phase == crawler.PhasePersisted {
				alreadyPersisted = true
			}
		}
	}
	snap, err := cr.Run(ctx)
	if err != nil {
		return nil, err
	}
	if alreadyPersisted {
		return snap, nil
	}
	if err := crawler.Persist(ctx, p.Store, snap, snapshot); err != nil {
		return nil, err
	}
	// Snapshot-builder stage: emit the frozen columnar artifact every
	// analysis, query and replica reads.
	if err := p.freeze(ctx, snap, snapshot); err != nil {
		return nil, err
	}
	if cr.Checkpoint != nil {
		marker := &crawler.Checkpoint{
			Seq:   snap.Stats.Checkpoints,
			Phase: crawler.PhasePersisted,
			Snap:  snap,
		}
		if err := crawler.SaveCheckpoint(ctx, p.Store, cr.Checkpoint.Namespace, marker); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// freeze emits the round's frozen artifact: a freeze from the persisted
// records for round 0 or when the previous round has no artifact to
// apply a delta onto, otherwise a delta commit onto the previous frozen
// snapshot. Any delta failure falls back to the freeze from the store:
// the delta is an optimization, never a reason to abort a crawl.
func (p *Pipeline) freeze(ctx context.Context, snap *crawler.Snapshot, snapshot int) error {
	if snapshot > 0 && core.HasFrozen(p.Store, snapshot-1) {
		err := p.deltaFreeze(ctx, snap, snapshot)
		if err == nil {
			return nil
		}
		p.DeltaFallbacks++
		fmt.Fprintf(os.Stderr, "crowdscope: freeze snapshot %d: delta commit failed (%v); freezing from the store\n", snapshot, err)
	}
	if _, err := core.BuildFrozen(ctx, p.Store, snapshot); err != nil {
		return fmt.Errorf("crowdscope: freeze snapshot %d: %w", snapshot, err)
	}
	return nil
}

// deltaFreeze commits the round as a frozen/delta-N artifact applied
// onto the previous frozen snapshot. CommitDelta applies the delta in
// memory before persisting anything, so a failure here leaves no
// partial artifacts behind and the caller can re-freeze from scratch.
func (p *Pipeline) deltaFreeze(ctx context.Context, snap *crawler.Snapshot, snapshot int) error {
	prev, err := core.LoadFrozen(p.Store, snapshot-1)
	if err != nil {
		return err
	}
	sd, err := core.DiffCrawl(prev, nil, snap, snapshot)
	if err != nil {
		return err
	}
	if _, err := core.CommitDelta(ctx, p.Store, prev, sd); err != nil {
		return err
	}
	return nil
}

// AdvanceDays evolves the world (the longitudinal simulation) and
// refreshes the API server's derived indices.
func (p *Pipeline) AdvanceDays(days int) {
	for i := 0; i < days; i++ {
		p.World.Evolve()
	}
	p.Server.Reload()
}

// Analyze loads the given snapshot's frozen artifact (-1 = latest) and
// runs the full analysis suite, exactly (no sampling budget), over its
// columns and CSR graph. The context bounds the store read and is
// checked between the analysis kernels, which are pure CPU.
func (p *Pipeline) Analyze(ctx context.Context, snapshot int) (*Analysis, error) {
	fs, err := core.LoadFrozenContext(ctx, p.Store, snapshot)
	if err != nil {
		return nil, err
	}
	res, err := core.Analyze(ctx, fs, 4, p.World.Cfg.NumCommunities(), p.Config.Workers, core.Budget{Seed: p.Config.Seed})
	if err != nil {
		return nil, err
	}
	return &Analysis{
		Companies:   fs.Companies,
		Investors:   fs.Investors,
		Engagement:  res.Engagement,
		Thresholds:  res.Thresholds,
		Graph:       res.Graph,
		Communities: res.Communities,
		Fig3:        res.Fig3,
	}, nil
}

// Analysis bundles the paper's analyses for one snapshot.
type Analysis struct {
	Companies   []core.Company
	Investors   []core.Investor
	Engagement  []core.EngagementRow
	Thresholds  core.EngagementThresholds
	Graph       core.GraphStats
	Communities *core.CommunitiesResult
	Fig3        core.Fig3Result
}

// Close shuts the API server down. The store remains readable.
func (p *Pipeline) Close() {
	p.ts.Close()
}
