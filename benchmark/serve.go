package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
	"crowdscope/internal/query"
	"crowdscope/internal/serve"
	"crowdscope/internal/store"
)

const (
	serveReplicas = 2 // replicas behind the front, as cmd/crowdfleet defaults
	clientConns   = 2 // serve_hot's client connections (one goroutine each)
	// adhocSessions is one, not the issue's two: two sessions keep both
	// CPUs busy with memory-bound scans, and on the busy host that cell's
	// median then flips between two speeds from run to run (quartile spread
	// 26–36 % over ten seeds, against 5 % with one session in the same hour).
	adhocSessions = 1
)

// serveRig is a snapshot built once and served by the fleet, plus the
// harness's own decoded copy for the oracle and the planner guard.
type serveRig struct {
	dir       string
	col       *collected
	fleet     *servingFleet
	hst       *store.Store
	source    *core.QuerySource
	view      *snapshotView
	setupDur  time.Duration
	initialMS []float64 // each replica's first Refresh

	// serve_hot: the fixed population and its popularity ranking.
	pop   []*stmt
	paths []string
	rank  []int
	// serve_adhoc: the generator no statement leaves twice.
	gen *adhocGen
}

// newServeRig is the serving workloads' set-up: build the snapshot
// through the collection path, start the fleet, refresh the replicas,
// and warm them — the hot workload with its most popular statements
// (filling the result caches), the ad-hoc one with a few scans (the
// first scan on a replica decodes the snapshot and marshals every row).
func newServeRig(e *env, name string, hot bool) (*serveRig, error) {
	t0 := time.Now()
	sz := e.sz
	rig := &serveRig{dir: filepath.Join(e.scratch, name)}
	var err error
	if rig.col, err = collect(e.ctx, e.tr, noSpan, 0, rig.dir, e.seed, sz.serveScale, sz.batchShards); err != nil {
		return nil, err
	}
	if rig.fleet, err = startFleet(rig.dir, serveReplicas, false); err != nil {
		return nil, err
	}
	took, err := rig.fleet.refresh(e.ctx)
	if err != nil {
		rig.fleet.close()
		return nil, err
	}
	rig.initialMS = durationsMS(took)

	if rig.hst, err = store.OpenReadOnly(rig.dir); err != nil {
		rig.fleet.close()
		return nil, fmt.Errorf("benchmark: open harness store: %w", err)
	}
	fs, err := core.LoadFrozen(rig.hst, 0)
	if err != nil {
		rig.fleet.close()
		return nil, fmt.Errorf("benchmark: load snapshot for the oracle: %w", err)
	}
	rig.view, rig.source = newSnapshotView(fs), &core.QuerySource{Store: rig.hst}

	var warm []*stmt
	if hot {
		if rig.pop, err = indexedPopulation(e.seed, rig.view, sz.hotPop); err != nil {
			rig.fleet.close()
			return nil, err
		}
		rig.rank = popularity(e.seed, len(rig.pop))
		rig.paths = make([]string, len(rig.pop))
		for i, s := range rig.pop {
			rig.paths[i] = queryPath(s.sql(0))
		}
		for _, i := range rig.rank[:min(serve.DefaultResultCacheSize, len(rig.rank))] {
			warm = append(warm, rig.pop[i])
		}
	} else {
		rig.gen = newAdhocGen(e.seed, rig.view)
		for i := 0; i < 3*serveReplicas; i++ {
			s, err := rig.gen.next()
			if err != nil {
				rig.fleet.close()
				return nil, err
			}
			warm = append(warm, s)
		}
	}
	if err := guardRoutes(rig.source, warm, 0, !hot); err != nil {
		rig.fleet.close()
		return nil, err
	}
	conn := newConn()
	defer conn.CloseIdleConnections()
	for i, s := range warm {
		// Alternate replicas; the hot set goes to both, as the front's
		// round-robin would deliver it.
		for r := 0; r < serveReplicas; r++ {
			if !hot && r != i%serveReplicas {
				continue
			}
			status, _, err := get(e.ctx, conn, rig.fleet.direct[r].URL+queryPath(s.sql(0)))
			if err != nil || status != http.StatusOK {
				rig.fleet.close()
				return nil, fmt.Errorf("benchmark: warm replica %d with %q: status %d: %v", r, s.sql(0), status, err)
			}
		}
	}
	rig.setupDur = time.Since(t0)
	return rig, nil
}

func (r *serveRig) close() { r.fleet.close() }

// serveSetups builds the rig setupRepeats times, keeps the last, and
// records the median set-up time.
func serveSetups(e *env, hot bool) (*serveRig, error) {
	var setups []float64
	var rig *serveRig
	for i := 0; i < e.sz.setupRepeats; i++ {
		if rig != nil {
			rig.close()
			if err := os.RemoveAll(rig.dir); err != nil {
				return nil, fmt.Errorf("benchmark: remove set-up store: %w", err)
			}
		}
		var err error
		if rig, err = newServeRig(e, fmt.Sprintf("serve-%d", i), hot); err != nil {
			return nil, err
		}
		setups = append(setups, rig.setupDur.Seconds())
		if e.traced {
			// Set-up time is an end-to-end metric; one rig is enough, and
			// its spans say where that time went.
			by := secondsByName(e.tr.spans)
			e.out.layer["ecosystem.generate_s"] = by["ecosystem.GenerateTo"]
			e.out.layer["crawler.ingest_s"] = by["crawler.IngestGenerated"]
			e.out.layer["crawler.ingest_records"] = float64(rig.col.ingested)
			e.out.layer["core.freeze_s"] = by["core.BuildFrozen"]
			break
		}
	}
	e.out.e2e["setup_s"] = median(setups)
	e.out.layer["serve.initial_refresh_ms"] = median(rig.initialMS)
	return rig, nil
}

// storeMetrics records the served store's footprint.
func (r *serveRig) storeMetrics(o *outcome) error {
	bytes, files, err := diskUsage(r.dir)
	if err != nil {
		return fmt.Errorf("benchmark: measure store: %w", err)
	}
	entities := float64(r.col.cfg.NumStartups() + r.col.cfg.NumUsers())
	o.e2e["store_bytes_per_entity"] = float64(bytes) / entities
	o.layer["store.bytes_on_disk"] = float64(bytes)
	o.layer["store.files"] = float64(files)
	return nil
}

// goodputMetrics writes a load phase's goodput; wrong counts answers
// the oracle rejected after the phase. wall_s restates it as the time
// a thousand correct answers take, so the serving workloads have a job
// time like the batch ones.
func goodputMetrics(o *outcome, st *loadStats, wrong int) {
	good := float64(st.attempted - st.failed - wrong)
	o.e2e["goodput_qps"] = good / st.elapsed.Seconds()
	o.e2e["wall_s"] = 1000 * st.elapsed.Seconds() / good
}

// serveHot is InSearch-style interactive exploration: an open loop of
// index-routed statements with Zipf popularity through the front. The
// traced run adds a closed loop on the same connections for saturation
// goodput, which is reported per layer and not gated: on two cores,
// with clients, front and replicas in one process, it moves 15–18 %
// between identical runs.
func serveHot(e *env) error {
	rig, err := serveSetups(e, true)
	if err != nil {
		return err
	}
	defer rig.close()
	sz, o := e.sz, e.out
	if len(rig.pop) <= serve.DefaultResultCacheSize {
		return fmt.Errorf("benchmark: guard: serve_hot population %d does not exceed the result cache (%d)", len(rig.pop), serve.DefaultResultCacheSize)
	}
	if err := guardRoutes(rig.source, rig.pop, 0, false); err != nil {
		return err
	}

	ver := newVerifier(rig.pop)
	conns := make([]*http.Client, clientConns)
	streams := make([]*zipfStream, clientConns)
	for i := range conns {
		conns[i] = newConn()
		streams[i] = newZipfStream(e.seed+int64(1+i), rig.rank)
	}
	defer closeConns(conns)
	next := func(conn int) request {
		i := streams[conn].next()
		return request{
			url:     rig.fleet.entry.URL + rig.paths[i],
			observe: func(body []byte) bool { return ver.observe(i, body) },
		}
	}
	seconds := e.seconds
	if e.traced {
		seconds *= 0.4 // the traced run needs the counters, not the precision
	}
	cpu0 := processCPU()
	open := openLoop(e.ctx, conns, sz.hotRate, time.Duration(seconds*float64(time.Second)), next)
	o.layer["harness.cpu_us_per_request"] = us(processCPU()-cpu0) / float64(max(open.attempted, 1))
	closed := &loadStats{}
	if e.traced {
		var err error
		closed, err = closedLoop(e.ctx, conns, time.Duration(0.5*seconds*float64(time.Second)), func(conn int) (request, error) {
			return next(conn), nil
		})
		if err != nil {
			return err
		}
		o.layer["harness.saturation_qps"] = float64(closed.attempted-closed.failed) / closed.elapsed.Seconds()
	}
	checked, wrong, err := ver.settle(rig.view.fs, 0)
	if err != nil {
		return err
	}
	o.attempted += open.attempted + closed.attempted + checked
	o.failed += open.failed + closed.failed + wrong

	latencyMetrics(o, open)
	// A warning, not a verdict: latency runs from the due time, so a late
	// send is inside it already, and on a busy host otherwise sound runs
	// reach 1–5 % (a quiet one stays at 0.04–0.4 %).
	if late := lateMetrics(o, open); late > 0.01 {
		fmt.Fprintf(logOut, "benchmark: warning: open-loop generator sent %.2f%% of requests more than 1 ms late\n", 100*late)
	}
	goodputMetrics(o, open, 0)
	if err := rig.storeMetrics(o); err != nil {
		return err
	}
	status, err := rig.fleet.statusAll()
	if err != nil {
		return err
	}
	status.record(o.layer, rig.fleet)
	o.check(status.routes["scan"] == 0, "serve_hot executed %d scan-route plans", status.routes["scan"])
	o.check(status.shed == 0, "replicas shed %d requests", status.shed)

	if e.traced {
		sample := make([]*stmt, 0, sz.replaySample)
		for _, i := range rig.rank[:min(sz.replaySample, len(rig.rank))] {
			sample = append(sample, rig.pop[i])
		}
		if err := replayDepths(e, rig, sample, sample, sample, sample, min(len(sample), serve.DefaultResultCacheSize*3/4)); err != nil {
			return err
		}
		if err := probeServing(e, rig); err != nil {
			return err
		}
	}
	o.e2e["peak_rss_mb"] = peakRSSMB()
	return nil
}

// answered is one ad-hoc statement and the body it got.
type answered struct {
	s    *stmt
	body []byte
}

// serveAdhoc is two analysts at crowdquery prompts: each waits for an
// answer before asking the next, never-repeated, question, and every
// question needs a scan.
func serveAdhoc(e *env) error {
	rig, err := serveSetups(e, false)
	if err != nil {
		return err
	}
	defer rig.close()
	o := e.out

	conns := make([]*http.Client, adhocSessions)
	for i := range conns {
		conns[i] = newConn()
	}
	defer closeConns(conns)
	var mu sync.Mutex
	var got []answered
	seconds := e.seconds
	if e.traced {
		seconds *= 0.4
	}
	cpu0 := processCPU()
	closed, err := closedLoop(e.ctx, conns, time.Duration(seconds*float64(time.Second)), func(int) (request, error) {
		s, err := rig.gen.next()
		if err != nil {
			return request{}, err
		}
		return request{
			url: rig.fleet.entry.URL + queryPath(s.sql(0)),
			observe: func(body []byte) bool {
				mu.Lock()
				got = append(got, answered{s, append([]byte(nil), body...)})
				mu.Unlock()
				return true
			},
		}, nil
	})
	if err != nil {
		return err
	}
	o.layer["harness.cpu_us_per_request"] = us(processCPU()-cpu0) / float64(max(closed.attempted, 1))
	asked := make([]*stmt, len(got))
	wrong := 0
	for i, a := range got {
		asked[i] = a.s
		want, err := expectedBody(a.s.expect(rig.view.fs))
		if err != nil {
			return err
		}
		if string(want) != string(a.body) {
			wrong++
			fmt.Fprintf(logOut, "benchmark: wrong answer for %q:\n  got  %.300s\n  want %.300s\n", a.s.sql(0), a.body, want)
		}
	}
	if err := guardRoutes(rig.source, asked, 0, true); err != nil {
		return err
	}
	o.attempted += closed.attempted + len(got)
	o.failed += closed.failed + wrong

	latencyMetrics(o, closed)
	goodputMetrics(o, closed, wrong)
	if err := rig.storeMetrics(o); err != nil {
		return err
	}
	status, err := rig.fleet.statusAll()
	if err != nil {
		return err
	}
	status.record(o.layer, rig.fleet)
	indexed := status.routes["index"] + status.routes["index-count"] + status.routes["index-topk"]
	o.check(indexed == 0 && status.routes["scan"] > 0, "serve_adhoc executed %d index-route plans and %d scans", indexed, status.routes["scan"])
	o.check(status.shed == 0, "replicas shed %d requests", status.shed)

	if e.traced {
		// Every depth gets statements of its own: a repeat would be a
		// result-cache hit, and this workload exists to have none. All
		// depths see the same sequence of company-table shapes, so the
		// differences between depths are not differences between shapes.
		sets := make([][]*stmt, 4)
		for d := range sets {
			for i := 0; i < e.sz.replayScans; i++ {
				s, err := rig.gen.nextOf(0.85 * (float64(i) + 0.5) / float64(e.sz.replayScans))
				if err != nil {
					return err
				}
				sets[d] = append(sets[d], s)
			}
		}
		if err := replayDepths(e, rig, sets[0], sets[1], sets[2], sets[3], 0); err != nil {
			return err
		}
		if err := probeServing(e, rig); err != nil {
			return err
		}
	}
	o.e2e["peak_rss_mb"] = peakRSSMB()
	return nil
}

// timeOne times f in microseconds; with a tracer the call is a root
// span of the given trace.
func timeOne(tr *tracer, trace int, name string, f func() error) (float64, error) {
	sp := tr.start(noSpan, trace, name)
	t0 := time.Now()
	err := f()
	took := us(time.Since(t0))
	sp.end()
	return took, err
}

// timeEach times f(i) for i in [0,n), each as trace i.
func timeEach(tr *tracer, name string, n int, f func(i int) error) ([]float64, error) {
	took := make([]float64, n)
	for i := range took {
		var err error
		if took[i], err = timeOne(tr, i, name, func() error { return f(i) }); err != nil {
			return nil, err
		}
	}
	return took, nil
}

// replayDepths replays statements one at a time at four depths — via
// the front, straight at a replica's listener, at a server's handler
// with no network, and as direct query/core calls — so that each
// layer's cost is the difference between two depths. viaFront and
// direct are timed as result-cache hits when warmHits > 0 (their first
// warmHits statements, after one warming pass) and as misses otherwise;
// the handler depth times a miss and then a hit of every statement.
func replayDepths(e *env, rig *serveRig, viaFront, direct, handler, calls []*stmt, warmHits int) error {
	ctx, tr, m := e.ctx, e.tr, e.out.layer
	conn := newConn()
	defer conn.CloseIdleConnections()
	fetch := func(base string, set []*stmt) func(i int) error {
		return func(i int) error {
			status, _, err := get(ctx, conn, base+queryPath(set[i].sql(0)))
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("benchmark: replay %q: status %d: %v", set[i].sql(0), status, err)
			}
			return nil
		}
	}
	nNet := len(viaFront)
	if warmHits > 0 {
		// An even count keeps the front's round-robin sending a
		// statement to the same replica on the timed pass as on the
		// warming one.
		nNet = warmHits &^ 1
		if _, err := timeEach(nil, "", nNet, fetch(rig.fleet.entry.URL, viaFront)); err != nil {
			return err
		}
		if _, err := timeEach(nil, "", nNet, fetch(rig.fleet.direct[0].URL, direct)); err != nil {
			return err
		}
	}
	frontUS, err := timeEach(tr, "front", nNet, fetch(rig.fleet.entry.URL, viaFront))
	if err != nil {
		return err
	}
	if warmHits > 0 {
		// The same hits once more with no tracer: the difference is what
		// recording spans costs. (A miss cannot be asked twice, so the
		// ad-hoc workload reports no overhead.)
		plain, err := timeEach(nil, "", nNet, fetch(rig.fleet.entry.URL, viaFront))
		if err != nil {
			return err
		}
		m["harness.trace_overhead_pct"] = 100 * (median(frontUS) - median(plain)) / median(plain)
	}
	directUS, err := timeEach(tr, "serve.http", nNet, fetch(rig.fleet.direct[0].URL, direct))
	if err != nil {
		return err
	}

	// Handler depth: a server of its own over the same store, never on
	// the network, so its caches hold only what this replay put there.
	pst, err := store.OpenReadOnly(rig.dir)
	if err != nil {
		return fmt.Errorf("benchmark: open probe store: %w", err)
	}
	probe := serve.New(&serve.StoreBackend{Store: pst}, serve.Options{Clock: time.Now})
	if err := probe.Refresh(ctx); err != nil {
		return fmt.Errorf("benchmark: refresh probe server: %w", err)
	}
	h := probe.Handler()
	serveOnce := func(s *stmt) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, queryPath(s.sql(0)), nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("benchmark: replay %q at the handler: status %d", s.sql(0), rec.Code)
		}
		return nil
	}
	// One throwaway request first: it pays for the lazy snapshot decode.
	if err := serveOnce(firstQuery); err != nil {
		return err
	}
	// Each statement twice in a row: a miss, then a hit before anything
	// can evict it.
	both, err := timeEach(tr, "serve.handler", 2*len(handler), func(i int) error { return serveOnce(handler[i/2]) })
	if err != nil {
		return err
	}
	missUS, hitUS := make([]float64, len(handler)), make([]float64, len(handler))
	for i := range handler {
		missUS[i], hitUS[i] = both[2*i], both[2*i+1]
	}

	// Call depth: parse, plan, execute, encode — the harness's own
	// source, already warm from the guard.
	type callCost struct {
		route                     string
		parse, plan, exec, encode float64
		examinedPerRow            float64
	}
	costs := make([]callCost, len(calls))
	for i, s := range calls {
		sql := s.sql(0)
		var q *query.Query
		var plan *query.Plan
		var res *query.Result
		c := &costs[i]
		var err error
		if c.parse, err = timeOne(tr, i, "query.Parse", func() (err error) { q, err = query.Parse(sql); return }); err != nil {
			return fmt.Errorf("benchmark: replay parse %q: %w", sql, err)
		}
		if c.plan, err = timeOne(tr, i, "query.PlanFor", func() error { plan = q.PlanFor(rig.source); return nil }); err != nil {
			return err
		}
		if c.exec, err = timeOne(tr, i, "query.Explain", func() (err error) { res, plan, err = q.Explain(ctx, rig.source); return }); err != nil {
			return fmt.Errorf("benchmark: replay execute %q: %w", sql, err)
		}
		c.route = plan.Route
		if c.encode, err = timeOne(tr, i, "json.Marshal", func() error { _, err := json.Marshal(res); return err }); err != nil {
			return fmt.Errorf("benchmark: replay encode %q: %w", sql, err)
		}
		examined := plan.EstRows
		if plan.Route == query.RouteScan {
			examined = plan.TableRows
		}
		c.examinedPerRow = float64(examined) / float64(max(len(res.Rows), 1))
	}

	// Layer costs as differences between depths.
	byRoute := map[string][]float64{}
	var parse, plan, encode, examined []float64
	for _, c := range costs {
		byRoute[c.route] = append(byRoute[c.route], c.exec)
		parse, plan, encode = append(parse, c.parse), append(plan, c.plan), append(encode, c.encode)
		examined = append(examined, c.examinedPerRow)
	}
	m["query.parse_us"] = median(parse)
	m["query.plan_us"] = median(plan)
	m["query.encode_us"] = median(encode)
	m["query.exec_index_us"] = median(byRoute[query.RouteIndex])
	m["query.exec_index_count_us"] = median(byRoute[query.RouteIndexCount])
	m["query.exec_index_topk_us"] = median(byRoute[query.RouteIndexTopK])
	m["query.exec_scan_ms"] = median(byRoute[query.RouteScan]) / 1000
	m["query.rows_examined_per_row_returned"] = median(examined)

	miss := median(missUS)
	m["serve.handler_hit_us"] = median(hitUS)
	if len(byRoute[query.RouteScan]) > 0 {
		m["serve.handler_miss_scan_ms"] = miss / 1000
	} else {
		m["serve.handler_miss_index_us"] = miss
	}
	// What the handler adds to the calls it makes (admission gate,
	// breaker, statement and result caches). Explain plans internally,
	// so plan time is inside exec and not subtracted again.
	var callTotal []float64
	for _, c := range costs {
		callTotal = append(callTotal, c.parse+c.exec+c.encode)
	}
	m["serve.overhead_us"] = miss - median(callTotal)
	// The network depths were hits or misses alike; compare like with like.
	handlerUS := median(hitUS)
	if warmHits == 0 {
		handlerUS = miss
	}
	m["front.hop_us"] = median(frontUS) - median(directUS)
	m["front.http_us"] = median(directUS) - handlerUS
	return nil
}

// probeServing times the single calls a replica's start-up makes: the
// artifact codecs and blob reads, and the payload build the first scan
// after a load pays for.
func probeServing(e *env, rig *serveRig) error {
	if err := probeArtifacts(e, rig.col.st, rig.view.fs, crawler.NSUsers); err != nil {
		return err
	}
	pst, err := store.OpenReadOnly(rig.dir)
	if err != nil {
		return fmt.Errorf("benchmark: open probe store: %w", err)
	}
	src := &core.QuerySource{Store: pst}
	scan := func() (time.Duration, error) {
		t0 := time.Now()
		err := src.ScanContext(e.ctx, core.FrozenNamespace(0)+"/companies", func([]byte) error { return nil })
		return time.Since(t0), err
	}
	first, err := scan()
	if err != nil {
		return fmt.Errorf("benchmark: probe payload build: %w", err)
	}
	again, err := scan()
	if err != nil {
		return fmt.Errorf("benchmark: probe payload build: %w", err)
	}
	e.out.layer["core.payload_build_ms"] = ms(first - again)
	return nil
}
