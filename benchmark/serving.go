package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"crowdscope/internal/core"
	"crowdscope/internal/fleet/front"
	"crowdscope/internal/serve"
	"crowdscope/internal/store"
)

// servingFleet is the read-side topology of cmd/crowdfleet in one
// process: replicas over read-only handles of one store directory, each
// on its own loopback listener (httptest.Server, as the pipeline's own
// simulated APIs are served), behind the failover front.
type servingFleet struct {
	replicas []*serve.Server
	direct   []*httptest.Server
	front    *front.Front
	entry    *httptest.Server
	hop      *http.Transport // the front's connections to the replicas
}

func startFleet(storeDir string, replicas int, deltaRefresh bool) (*servingFleet, error) {
	f := &servingFleet{hop: &http.Transport{MaxIdleConnsPerHost: 4}}
	targets := make([]string, replicas)
	for i := 0; i < replicas; i++ {
		st, err := store.OpenReadOnly(storeDir)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("benchmark: open replica store: %w", err)
		}
		srv := serve.New(&serve.StoreBackend{Store: st}, serve.Options{
			Clock:        time.Now,
			ReplicaID:    fmt.Sprintf("replica-%d", i),
			DeltaRefresh: deltaRefresh,
		})
		lb := httptest.NewServer(srv.Handler())
		f.replicas = append(f.replicas, srv)
		f.direct = append(f.direct, lb)
		targets[i] = lb.URL
	}
	fr, err := front.New(targets, front.Options{Client: &http.Client{Transport: f.hop}})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("benchmark: front: %w", err)
	}
	f.front = fr
	f.entry = httptest.NewServer(fr.Handler())
	return f, nil
}

// refresh brings every replica up to the store's newest snapshot, one
// after the other, returning each replica's Refresh time.
func (f *servingFleet) refresh(ctx context.Context) ([]time.Duration, error) {
	took := make([]time.Duration, len(f.replicas))
	for i, srv := range f.replicas {
		t0 := time.Now()
		if err := srv.Refresh(ctx); err != nil {
			return nil, fmt.Errorf("benchmark: refresh replica %d: %w", i, err)
		}
		took[i] = time.Since(t0)
	}
	return took, nil
}

func (f *servingFleet) close() {
	if f.entry != nil {
		f.entry.Close()
	}
	for _, lb := range f.direct {
		lb.Close()
	}
	f.hop.CloseIdleConnections()
}

// status reads one replica's /statusz at handler level.
func (f *servingFleet) status(i int) (serve.Status, error) {
	rec := httptest.NewRecorder()
	f.replicas[i].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	var st serve.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("benchmark: decode /statusz: %w", err)
	}
	return st, nil
}

// fleetStatus is the replicas' /statusz counters added up.
type fleetStatus struct {
	hits, misses              int64
	entries                   int
	routes                    map[string]int64
	shed, trips, served       int64
	deltaRefreshes, fullLoads int64
}

func (f *servingFleet) statusAll() (*fleetStatus, error) {
	sum := &fleetStatus{routes: map[string]int64{}}
	for i := range f.replicas {
		st, err := f.status(i)
		if err != nil {
			return nil, err
		}
		sum.hits += st.CacheHits
		sum.misses += st.CacheMisses
		sum.entries += st.CacheEntries
		for route, n := range st.PlanRoutes {
			sum.routes[route] += n
		}
		sum.shed += st.Shed
		sum.trips += st.BreakerTrips
		sum.served += st.Served
		sum.deltaRefreshes += st.DeltaRefreshes
		sum.fullLoads += st.FullReloads
	}
	return sum, nil
}

// addGeneration folds in the counters an earlier snapshot generation
// left behind: a hot-swap resets the result-cache and plan-route tallies
// (the other counters run for the server's lifetime), so a workload that
// swaps reads them before each swap and adds them up.
func (s *fleetStatus) addGeneration(earlier *fleetStatus) {
	s.hits += earlier.hits
	s.misses += earlier.misses
	for route, n := range earlier.routes {
		s.routes[route] += n
	}
}

// record writes the serving layer's own counters as per-layer metrics.
func (s *fleetStatus) record(m metrics, f *servingFleet) {
	if total := s.hits + s.misses; total > 0 {
		m["serve.result_cache_hit_ratio"] = float64(s.hits) / float64(total)
	}
	m["serve.result_cache_entries"] = float64(s.entries)
	m["serve.plan_routes.scan"] = float64(s.routes["scan"])
	m["serve.plan_routes.index"] = float64(s.routes["index"])
	m["serve.plan_routes.index-count"] = float64(s.routes["index-count"])
	m["serve.plan_routes.index-topk"] = float64(s.routes["index-topk"])
	m["serve.shed"] = float64(s.shed)
	m["serve.breaker_trips"] = float64(s.trips)
	m["serve.served"] = float64(s.served)
	m["front.retries"] = float64(f.front.Retries())
	m["front.ejections"] = float64(f.front.Ejections())
}

// ---- client side ----

// newConn is one client connection: a transport that may hold a single
// connection to its host.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

func closeConns(conns []*http.Client) {
	for _, c := range conns {
		c.CloseIdleConnections()
	}
}

// get fetches url and returns the status and whole body.
func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

// request is one request a load loop is about to send; observe, when
// set, receives a 200's body and reports whether it is acceptable.
type request struct {
	url     string
	observe func(body []byte) bool
}

// loadStats is what a load phase saw.
type loadStats struct {
	latMS     []float64 // per answered request: from its due time (open loop) or its send (closed loop)
	lagMS     []float64 // open loop only: how late each send was
	attempted int
	failed    int // transport errors, non-200s, unacceptable bodies
	elapsed   time.Duration
}

func (s *loadStats) merge(o *loadStats) {
	s.latMS = append(s.latMS, o.latMS...)
	s.lagMS = append(s.lagMS, o.lagMS...)
	s.attempted += o.attempted
	s.failed += o.failed
}

// issue sends one request and books it.
func (s *loadStats) issue(ctx context.Context, c *http.Client, r request, from time.Time) {
	s.attempted++
	status, body, err := get(ctx, c, r.url)
	if err != nil || status != http.StatusOK || (r.observe != nil && !r.observe(body)) {
		if s.failed++; s.failed <= 5 {
			fmt.Fprintf(logOut, "benchmark: request failed: %s: status %d err %v\n", r.url, status, err)
		}
		return
	}
	s.latMS = append(s.latMS, ms(time.Since(from)))
}

// openLoop sends rate requests per second for dur, whatever the
// answers do: request i is due at start + i/rate and is handed to
// connection i mod len(conns). Latency runs from the due time, so a
// stall is charged to every request it delays, and the lag of each send
// behind its due time is kept to show how well the generator kept pace.
// Cancelling ctx ends the schedule; a request already sent completes.
func openLoop(ctx context.Context, conns []*http.Client, rate float64, dur time.Duration, next func(conn int) request) *loadStats {
	total := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	reqCtx := context.WithoutCancel(ctx)
	parts := make([]*loadStats, len(conns))
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &loadStats{}
			parts[w] = st
			for i := w; i < total && ctx.Err() == nil; i += len(conns) {
				due := start.Add(time.Duration(i) * interval)
				if !sleepUntil(ctx, due) {
					return
				}
				st.lagMS = append(st.lagMS, ms(time.Since(due)))
				st.issue(reqCtx, conns[w], next(w), due)
			}
		}(w)
	}
	wg.Wait()
	all := &loadStats{elapsed: time.Since(start)}
	for _, p := range parts {
		all.merge(p)
	}
	return all
}

// sleepUntil waits for the due time; false means ctx ended meanwhile.
// Waits are at most one send interval, so ctx is only checked after.
func sleepUntil(ctx context.Context, due time.Time) bool {
	if wait := time.Until(due); wait > 0 {
		preciseSleep(wait)
	}
	return ctx.Err() == nil
}

// closedLoop runs one waiting client per connection for dur: each sends
// its next request only when the previous answer has arrived.
func closedLoop(ctx context.Context, conns []*http.Client, dur time.Duration, next func(conn int) (request, error)) (*loadStats, error) {
	start := time.Now()
	deadline := start.Add(dur)
	reqCtx := context.WithoutCancel(ctx)
	parts := make([]*loadStats, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &loadStats{}
			parts[w] = st
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r, err := next(w)
				if err != nil {
					errs[w] = err
					return
				}
				st.issue(reqCtx, conns[w], r, time.Now())
			}
		}(w)
	}
	wg.Wait()
	all := &loadStats{elapsed: time.Since(start)}
	for _, p := range parts {
		all.merge(p)
	}
	return all, errors.Join(errs...)
}

// ---- response verification ----

// verifier holds the first body seen for each statement of a
// population on one snapshot. A replay must equal the first body byte
// for byte (checked as it arrives); the first bodies are checked
// against the oracle once the phase is over, off the timed path.
type verifier struct {
	stmts []*stmt
	first []atomic.Pointer[[]byte]
}

func newVerifier(stmts []*stmt) *verifier {
	return &verifier{stmts: stmts, first: make([]atomic.Pointer[[]byte], len(stmts))}
}

// observe books statement i's body and reports whether it matches the
// first one seen.
func (v *verifier) observe(i int, body []byte) bool {
	if prev := v.first[i].Load(); prev != nil {
		return bytes.Equal(*prev, body)
	}
	own := append([]byte(nil), body...)
	if v.first[i].CompareAndSwap(nil, &own) {
		return true
	}
	return bytes.Equal(*v.first[i].Load(), body)
}

// settle checks every first body against the oracle and returns how
// many were checked and how many were wrong.
func (v *verifier) settle(fs *core.FrozenSnapshot, snap int) (checked, wrong int, err error) {
	for i, s := range v.stmts {
		got := v.first[i].Load()
		if got == nil {
			continue
		}
		want, err := expectedBody(s.expect(fs))
		if err != nil {
			return checked, wrong, err
		}
		checked++
		if !bytes.Equal(*got, want) {
			wrong++
			fmt.Fprintf(logOut, "benchmark: wrong answer for %q:\n  got  %.300s\n  want %.300s\n", s.sql(snap), *got, want)
		}
	}
	return checked, wrong, nil
}

// latencyMetrics writes a phase's median and p90, and keeps the
// ungated tail for the traced report.
func latencyMetrics(o *outcome, st *loadStats) {
	asc := sorted(st.latMS)
	o.e2e["lat_p50_ms"] = quantile(asc, 0.5)
	o.e2e["lat_p90_ms"] = quantile(asc, 0.9)
	o.layer["harness.lat_p99_ms"] = quantile(asc, 0.99)
	o.layer["harness.lat_tail_pct"] = 100 * supportedTail(len(asc))
	o.layer["harness.lat_tail_ms"] = quantile(asc, supportedTail(len(asc)))
	o.layer["harness.lat_max_ms"] = quantile(asc, 1)
	o.layer["harness.samples"] = float64(len(asc))
}

// lateMetrics reports how well the open-loop generator kept its
// schedule and returns the share of sends that left more than 1 ms late.
func lateMetrics(o *outcome, st *loadStats) float64 {
	late := 0
	for _, lag := range st.lagMS {
		if lag > 1 {
			late++
		}
	}
	share := float64(late) / float64(max(len(st.lagMS), 1))
	o.layer["harness.late_share"] = share
	o.layer["harness.send_lag_p99_ms"] = quantile(sorted(st.lagMS), 0.99)
	return share
}
