package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"crowdscope"
	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

const (
	crawlWorkers  = 2  // PipelineConfig.Workers: parallel fetches per crawl phase
	daysPerRound  = 30 // world evolution between crawl rounds
	maxCrawlRound = 16 // extra delta rounds stop here however long -seconds is
)

// crawlRig is the writes-beside-reads topology: one pipeline crawling
// into a store directory that two delta-refreshing replicas serve from.
type crawlRig struct {
	dir      string
	world    *ecosystem.World
	p        *crowdscope.Pipeline
	fleet    *servingFleet
	genTook  time.Duration
	setupDur time.Duration
}

func newCrawlRig(e *env, name string) (*crawlRig, error) {
	t0 := time.Now()
	rig := &crawlRig{dir: filepath.Join(e.scratch, name)}
	world, err := ecosystem.Generate(ecosystem.NewConfig(e.seed, e.sz.crawlScale))
	if err != nil {
		return nil, fmt.Errorf("benchmark: generate world: %w", err)
	}
	rig.world, rig.genTook = world, time.Since(t0)
	rig.p, err = crowdscope.NewPipelineFromWorld(world, crowdscope.PipelineConfig{
		Seed: e.seed, Workers: crawlWorkers, StoreDir: rig.dir,
	})
	if err != nil {
		return nil, fmt.Errorf("benchmark: pipeline: %w", err)
	}
	if rig.fleet, err = startFleet(rig.dir, serveReplicas, true); err != nil {
		rig.p.Close()
		return nil, err
	}
	rig.setupDur = time.Since(t0)
	return rig, nil
}

func (r *crawlRig) close() {
	r.fleet.close()
	r.p.Close()
}

// servedPopulation is the reader's statement population aimed at one
// snapshot, with the harness's own decoded copy to check answers by.
type servedPopulation struct {
	snap  int
	view  *snapshotView
	paths []string
	ver   *verifier
}

func newServedPopulation(seed int64, snap int, fs *core.FrozenSnapshot, n int) (*servedPopulation, error) {
	view := newSnapshotView(fs)
	stmts, err := indexedPopulation(seed, view, n)
	if err != nil {
		return nil, err
	}
	sp := &servedPopulation{snap: snap, view: view, ver: newVerifier(stmts), paths: make([]string, n)}
	for i, s := range stmts {
		sp.paths[i] = queryPath(s.sql(snap))
	}
	return sp, nil
}

// crawlPass is one full run of the workload on a fresh rig.
type crawlPass struct {
	rig        *crawlRig
	crawlS     []float64 // per round: the Crawl call (AdvanceDays excluded)
	evolveS    float64
	refreshMS  []float64 // delta rounds: each replica's Refresh
	initialMS  []float64 // round 0: each replica's first (full) Refresh
	firstMS    []float64 // first indexed query on a replica after its Refresh
	freshMS    []float64 // delta rounds: commit returned → both replicas answer on the new snapshot
	reloadMS   []float64 // harness-side Store.Reload after a commit
	deltaBytes []float64
	reader     *loadStats
	bytes      int64
	files      int
	client     crawler.ClientStats
	entities   int
	apiCalls   int64
}

// firstQuery is the statement that proves a replica serves a snapshot.
// Its three-column top-k shape is one no population generates, so it
// never doubles as a cache warm-up for a measured statement.
var firstQuery = &stmt{
	format: "SELECT ID, Name, Likes FROM %s/companies ORDER BY Likes DESC LIMIT 10",
	expect: func(fs *core.FrozenSnapshot) query.Result {
		res := query.Result{Columns: []string{"ID", "Name", "Likes"}}
		for _, row := range topCompanies(fs, nil, companyInts[0], true, 10).Rows {
			i := sort.Search(len(fs.Companies), func(i int) bool { return fs.Companies[i].ID >= row[0].(string) })
			res.Rows = append(res.Rows, []any{row[0], fs.Companies[i].Name, row[1]})
		}
		return res
	},
}

func runCrawlPass(e *env, tr *tracer, name string) (*crawlPass, error) {
	rig, err := newCrawlRig(e, name)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	pass := &crawlPass{rig: rig}
	ctx, sz, o := e.ctx, e.sz, e.out

	harnessStore, err := store.OpenReadOnly(rig.dir)
	if err != nil {
		return nil, fmt.Errorf("benchmark: open harness store: %w", err)
	}
	source := &core.QuerySource{Store: harnessStore}

	// The traced pass re-issues Pipeline.Crawl's calls itself, so it
	// needs a client of its own (the pipeline's is private).
	var client *crawler.Client
	if tr != nil {
		if client, err = crawler.NewClient(rig.p.BaseURL(), rig.p.Config.Tokens); err != nil {
			return nil, fmt.Errorf("benchmark: crawler client: %w", err)
		}
	}
	var prevRaw *crawler.Snapshot

	var current atomic.Pointer[servedPopulation]
	var served []*servedPopulation
	conns := []*http.Client{newConn()}
	defer closeConns(conns)
	readerCtx, stopReader := context.WithCancel(ctx)
	readerDone := make(chan *loadStats, 1)
	readerStarted := false
	defer func() {
		// An error return must not leave the reader running.
		stopReader()
		if readerStarted && pass.reader == nil {
			<-readerDone
		}
	}()
	zipf := newZipfStream(e.seed+101, popularity(e.seed, sz.readerPop))
	startReader := func() {
		readerStarted = true
		go func() {
			readerDone <- openLoop(readerCtx, conns, sz.readerRate, time.Hour, func(int) request {
				pop, i := current.Load(), zipf.next()
				return request{
					url:     rig.fleet.entry.URL + pop.paths[i],
					observe: func(body []byte) bool { return pop.ver.observe(i, body) },
				}
			})
		}()
	}

	direct := newConn()
	defer direct.CloseIdleConnections()
	earlier := &fleetStatus{routes: map[string]int64{}}
	began := time.Now()
	// An untraced run keeps committing delta rounds until the measuring
	// time is up; a traced run stops at the rounds wall_s covers.
	more := func(r int) bool {
		return !e.traced && time.Since(began).Seconds() < e.seconds && r < maxCrawlRound
	}
	for r := 0; r < sz.crawlRounds || more(r); r++ {
		if r > 0 {
			t0 := time.Now()
			rig.p.AdvanceDays(daysPerRound)
			pass.evolveS += time.Since(t0).Seconds()
		}
		t0 := time.Now()
		var snap *crawler.Snapshot
		if tr == nil {
			snap, err = rig.p.Crawl(ctx, r)
		} else {
			snap, err = crawlTraced(ctx, tr, r, rig.p.Store, client, prevRaw)
			prevRaw = snap
		}
		if err != nil {
			return nil, fmt.Errorf("benchmark: crawl round %d: %w", r, err)
		}
		pass.crawlS = append(pass.crawlS, time.Since(t0).Seconds())
		committed := time.Now()

		// The swap resets the replicas' cache and route tallies; keep
		// the outgoing generation's.
		if r > 0 {
			gen, err := rig.fleet.statusAll()
			if err != nil {
				return nil, err
			}
			gen.addGeneration(earlier)
			earlier = gen
		}

		// Hot-swap: refresh each replica, then prove it answers an
		// indexed query on the new snapshot.
		root := tr.start(noSpan, r, "swap")
		firstBodies := make([][]byte, len(rig.fleet.replicas))
		for i, srv := range rig.fleet.replicas {
			t0 := time.Now()
			if err := tr.call(root, r, "serve.Server.Refresh", func() error { return srv.Refresh(ctx) }); err != nil {
				return nil, fmt.Errorf("benchmark: refresh replica %d to snapshot %d: %w", i, r, err)
			}
			if r == 0 {
				pass.initialMS = append(pass.initialMS, ms(time.Since(t0)))
			} else {
				pass.refreshMS = append(pass.refreshMS, ms(time.Since(t0)))
			}
			t0 = time.Now()
			sp := tr.start(root, r, "serve.first_query")
			status, body, err := get(ctx, direct, rig.fleet.direct[i].URL+queryPath(firstQuery.sql(r)))
			sp.end()
			o.check(err == nil && status == http.StatusOK, "replica %d first query on snapshot %d: status %d err %v", i, r, status, err)
			pass.firstMS = append(pass.firstMS, ms(time.Since(t0)))
			firstBodies[i] = body
		}
		root.end()
		if r > 0 {
			pass.freshMS = append(pass.freshMS, ms(time.Since(committed)))
		}

		// Harness-side copy of the new snapshot: the oracle's input.
		t0 = time.Now()
		if err := harnessStore.Reload(); err != nil {
			return nil, fmt.Errorf("benchmark: reload harness store: %w", err)
		}
		pass.reloadMS = append(pass.reloadMS, ms(time.Since(t0)))
		fs, err := core.LoadFrozen(harnessStore, r)
		if err != nil {
			return nil, fmt.Errorf("benchmark: load snapshot %d for the oracle: %w", r, err)
		}
		pop, err := newServedPopulation(e.seed+int64(r), r, fs, sz.readerPop)
		if err != nil {
			return nil, err
		}
		if err := guardRoutes(source, append([]*stmt{firstQuery}, pop.ver.stmts...), r, false); err != nil {
			return nil, err
		}
		want, err := expectedBody(firstQuery.expect(fs))
		if err != nil {
			return nil, err
		}
		for i, body := range firstBodies {
			o.check(string(body) == string(want), "replica %d answered the first query on snapshot %d wrongly", i, r)
		}
		served = append(served, pop)
		current.Store(pop)
		if r == 0 {
			startReader()
		}

		// Per-round counts against the world the APIs served.
		o.check(snap.Stats.StartupsCrawled == len(rig.world.Startups), "round %d crawled %d of %d startups", r, snap.Stats.StartupsCrawled, len(rig.world.Startups))
		o.check(snap.Stats.UsersCrawled == len(rig.world.Users), "round %d crawled %d of %d users", r, snap.Stats.UsersCrawled, len(rig.world.Users))
		o.check(len(fs.Companies) == len(rig.world.Startups), "snapshot %d froze %d of %d companies", r, len(fs.Companies), len(rig.world.Startups))
		if r > 0 {
			data, _, err := harnessStore.GetBlob(core.DeltaNamespace(r))
			o.check(err == nil, "round %d left no delta artifact: %v", r, err)
			pass.deltaBytes = append(pass.deltaBytes, float64(len(data)))
		}
		if r == sz.crawlRounds-1 {
			if pass.bytes, pass.files, err = diskUsage(rig.dir); err != nil {
				return nil, fmt.Errorf("benchmark: measure store: %w", err)
			}
			pass.entities = len(rig.world.Startups) + len(rig.world.Users)
			pass.client = snap.Stats.Client
			pass.apiCalls = rig.p.Server.Calls()
		}
	}
	stopReader()
	pass.reader = <-readerDone

	for _, pop := range served {
		checked, wrong, err := pop.ver.settle(pop.view.fs, pop.snap)
		if err != nil {
			return nil, err
		}
		o.attempted += checked
		o.failed += wrong
	}
	o.attempted += pass.reader.attempted
	o.failed += pass.reader.failed

	o.check(rig.p.DeltaFallbacks == 0, "%d delta commits fell back to a full refreeze", rig.p.DeltaFallbacks)
	status, err := rig.fleet.statusAll()
	if err != nil {
		return nil, err
	}
	status.addGeneration(earlier)
	rounds := int64(len(pass.crawlS))
	n := int64(len(rig.fleet.replicas))
	o.check(status.fullLoads == n && status.deltaRefreshes == n*(rounds-1),
		"replicas made %d full reloads and %d delta refreshes over %d rounds", status.fullLoads, status.deltaRefreshes, rounds)
	status.record(o.layer, rig.fleet)
	o.layer["serve.delta_refreshes"] = float64(status.deltaRefreshes)
	o.layer["serve.full_reloads"] = float64(status.fullLoads)
	o.layer["core.delta_fallbacks"] = float64(rig.p.DeltaFallbacks)
	return pass, nil
}

// crawlTraced is Pipeline.Crawl + freeze/deltaFreeze issued call by
// call: recover, run, persist, then a full freeze for round 0 or
// load-previous, diff, commit-delta for the later rounds.
func crawlTraced(ctx context.Context, tr *tracer, round int, st *store.Store, client *crawler.Client, prevRaw *crawler.Snapshot) (*crawler.Snapshot, error) {
	root := tr.start(noSpan, round, "round")
	defer root.end()
	err := tr.call(root, round, "core.RecoverChain", func() error { _, err := core.RecoverChain(ctx, st); return err })
	if err != nil {
		return nil, err
	}
	var snap *crawler.Snapshot
	cr := &crawler.Crawler{Client: client, Workers: crawlWorkers}
	if err := tr.call(root, round, "crawler.Crawler.Run", func() (err error) { snap, err = cr.Run(ctx); return }); err != nil {
		return nil, err
	}
	if err := tr.call(root, round, "crawler.Persist", func() error { return crawler.Persist(ctx, st, snap, round) }); err != nil {
		return nil, err
	}
	if round == 0 {
		err := tr.call(root, round, "core.BuildFrozen", func() error { _, err := core.BuildFrozen(ctx, st, round); return err })
		return snap, err
	}
	var prev *core.FrozenSnapshot
	if err := tr.call(root, round, "core.LoadFrozen", func() (err error) { prev, err = core.LoadFrozen(st, round-1); return }); err != nil {
		return nil, err
	}
	var sd *core.SnapshotDelta
	if err := tr.call(root, round, "core.DiffCrawl", func() (err error) { sd, err = core.DiffCrawl(prev, prevRaw, snap, round); return }); err != nil {
		return nil, err
	}
	err = tr.call(root, round, "core.CommitDelta", func() error { _, err := core.CommitDelta(ctx, st, prev, sd); return err })
	return snap, err
}

// crawlRefresh is the paper's collection path over loopback HTTP with
// live readers beside it.
func crawlRefresh(e *env) error {
	sz, o := e.sz, e.out
	// Set-up: world, pipeline (API server, client, store) and the
	// serving fleet, before anything is crawled.
	var setups []float64
	var genS []float64
	for i := 0; i < sz.setupRepeats-1; i++ {
		rig, err := newCrawlRig(e, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return err
		}
		setups = append(setups, rig.setupDur.Seconds())
		genS = append(genS, rig.genTook.Seconds())
		rig.close()
		if err := os.RemoveAll(rig.dir); err != nil {
			return fmt.Errorf("benchmark: remove set-up store: %w", err)
		}
	}
	pass, err := runCrawlPass(e, nil, "crawl")
	if err != nil {
		return err
	}
	setups = append(setups, pass.rig.setupDur.Seconds())
	genS = append(genS, pass.rig.genTook.Seconds())
	o.e2e["setup_s"] = median(setups)
	o.e2e["wall_s"] = sum(pass.crawlS[:sz.crawlRounds])
	o.e2e["store_bytes_per_entity"] = float64(pass.bytes) / float64(pass.entities)
	latencyMetrics(o, pass.reader)
	lateMetrics(o, pass.reader)
	o.e2e["goodput_qps"] = float64(pass.reader.attempted-pass.reader.failed) / pass.reader.elapsed.Seconds()

	if e.traced {
		if err := os.RemoveAll(pass.rig.dir); err != nil {
			return fmt.Errorf("benchmark: remove untraced store: %w", err)
		}
		traced, err := runCrawlPass(e, e.tr, "crawl-traced")
		if err != nil {
			return err
		}
		crawlLayers(e, traced, median(genS))
		untracedWall := sum(pass.crawlS[:sz.crawlRounds])
		o.layer["harness.trace_overhead_pct"] = 100 * (sum(traced.crawlS) - untracedWall) / untracedWall
		if err := probeCrawl(e, traced); err != nil {
			return err
		}
	}
	o.e2e["peak_rss_mb"] = peakRSSMB()
	return nil
}

// crawlLayers turns the traced pass's spans and counters into the
// per-layer metrics.
func crawlLayers(e *env, pass *crawlPass, genWorldS float64) {
	m := e.out.layer
	by := secondsByName(e.tr.spans)
	m["harness.trace_coverage_pct"] = coveragePct(e.tr.spans, "round")
	m["ecosystem.generate_world_s"] = genWorldS
	m["ecosystem.evolve_s"] = pass.evolveS
	m["crawler.run_s"] = by["crawler.Crawler.Run"]
	m["crawler.persist_s"] = by["crawler.Persist"]
	m["crawler.client_requests"] = float64(pass.client.Requests)
	m["crawler.client_retries"] = float64(pass.client.Retries + pass.client.BodyRetries)
	// Attempts per useful outcome: every entity costs at least one
	// request; listings, follower pages, augmentation and retries add
	// the rest.
	m["crawler.requests_per_entity"] = float64(pass.client.Requests) / float64(e.sz.crawlRounds*pass.entities)
	m["apiserver.requests"] = float64(pass.apiCalls)
	m["core.freeze_full_s"] = by["core.BuildFrozen"]
	m["core.load_frozen_s"] = by["core.LoadFrozen"]
	m["core.diff_crawl_s"] = by["core.DiffCrawl"]
	m["core.commit_delta_s"] = by["core.CommitDelta"]
	m["core.delta_bytes"] = median(pass.deltaBytes)
	m["serve.initial_refresh_ms"] = median(pass.initialMS)
	m["serve.refresh_ms"] = median(pass.refreshMS)
	m["serve.first_query_ms"] = median(pass.firstMS)
	m["serve.freshness_ms"] = median(pass.freshMS)
	m["store.reload_ms"] = median(pass.reloadMS)
	m["store.bytes_on_disk"] = float64(pass.bytes)
	m["store.files"] = float64(pass.files)
}

// probeCrawl times single calls the crawl path makes internally: the
// API server's handler without the crawler in front of it, and one
// in-memory delta apply of the kind a replica's Refresh performs.
func probeCrawl(e *env, pass *crawlPass) error {
	m, rig := e.out.layer, pass.rig
	rng := rand.New(rand.NewSource(e.seed + 202))
	handler := rig.p.Server.Handler()
	token := rig.p.Config.Tokens[0]
	took := make([]float64, 0, e.sz.directGETs)
	for i := 0; i < e.sz.directGETs; i++ {
		path := "/angellist/startups/" + rig.world.Startups[rng.Intn(len(rig.world.Startups))].ID
		if i%2 == 1 {
			path = "/angellist/users/" + rig.world.Users[rng.Intn(len(rig.world.Users))].ID
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("Authorization", "Bearer "+token)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		took = append(took, us(time.Since(t0)))
		e.out.check(rec.Code == http.StatusOK, "direct GET %s: status %d", path, rec.Code)
	}
	m["apiserver.direct_req_us"] = median(took)

	last := len(pass.crawlS) - 1
	prev, err := core.LoadFrozen(rig.p.Store, last-1)
	if err != nil {
		return fmt.Errorf("benchmark: probe apply delta: %w", err)
	}
	sd, err := core.LoadDelta(rig.p.Store, last)
	if err != nil {
		return fmt.Errorf("benchmark: probe apply delta: %w", err)
	}
	t0 := time.Now()
	if _, err := core.ApplyDelta(prev, sd); err != nil {
		return fmt.Errorf("benchmark: probe apply delta: %w", err)
	}
	m["core.apply_delta_ms"] = ms(time.Since(t0))
	return nil
}
