package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/core"
	"crowdscope/internal/index"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// HeaderStale marks a response served from the last-good cached
// snapshot while the store (or a newer artifact) is unreachable; its
// value is the served snapshot's namespace tag, e.g. "snap-000002".
const HeaderStale = "X-CrowdScope-Stale"

// HeaderReplica carries Options.ReplicaID on every response of a
// replica that has one, identifying which replica behind the front
// served.
const HeaderReplica = "X-CrowdScope-Replica"

// routeTimeout bounds each /api request end to end; the deadline
// propagates as a context through query, core and store reads.
const routeTimeout = 5 * time.Second

// Options configures the serving layer. Clock is mandatory — the
// package is in crowdlint's deterministic set, so crowdscope serve wires
// time.Now and tests inject fakes.
type Options struct {
	// DeltaRefresh makes Refresh apply frozen/delta-N artifacts onto the
	// served snapshot in memory instead of reloading the whole artifact
	// — the hot-swap pause scales with the round's churn, not the world
	// size. Any delta failure (missing artifact, fault, conflict)
	// silently falls back to a full reload. Generation-keyed caches
	// invalidate identically on both paths.
	DeltaRefresh bool
	// Logf, when set, receives operational log lines — notably the
	// planner's scan-fallback reasons. Nil silences them.
	Logf func(format string, args ...any)
	// Clock supplies all serving-layer time, the circuit breaker's
	// included.
	Clock apiserver.Clock
	// ReplicaID names this replica among those crowdscope fleet (or the
	// benchmark's serving rig) puts behind internal/fleet/front. When
	// set, every response carries it in HeaderReplica and /statusz
	// reports it, so the front's failover tests can observe which
	// replica actually served.
	ReplicaID string
}

// Server is the resilient HTTP layer over a Backend.
//
// Routes:
//
//	GET /healthz                     liveness (always 200 while the process runs)
//	GET /readyz                      readiness (503 until a snapshot is loaded, or while draining)
//	GET /statusz                     gate/breaker/cache observability snapshot
//	GET /api/query?q=STMT            run a query statement (admission + breaker + deadline)
//	GET /api/snapshot/companies      cached frozen companies (degradable)
//	GET /api/snapshot/investors      cached frozen investors (degradable)
//	GET /api/snapshot/stats          cached frozen graph stats (degradable)
//
// The /api routes pass through admission control and carry the route
// timeout; snapshot routes degrade to the last-good cached artifact
// (marked with X-CrowdScope-Stale) when live reads fail.
type Server struct {
	backend Backend
	opts    Options
	gate    *gate
	breaker *Breaker
	cache   snapCache
	mux     *http.ServeMux

	draining  atomic.Bool
	refreshMu sync.Mutex // single-flights opportunistic refreshes

	shed     atomic.Int64
	served   atomic.Int64
	degraded atomic.Int64

	deltaRefreshes atomic.Int64 // hot-swaps served by applying deltas in memory
	fullReloads    atomic.Int64 // hot-swaps that loaded the whole artifact

	results *resultCache
	stmts   *stmtCache

	planMu          sync.Mutex
	planRoutes      map[string]int64 // executed-plan tallies since last hot-swap
	lastFallback    string           // most recent planner scan-fallback reason
	loggedFallbacks map[string]bool  // fallback kinds already logged since last hot-swap
}

// New builds a server over the backend. Call Refresh to load the first
// snapshot before serving traffic (readyz reports 503 until one loads).
func New(backend Backend, opts Options) *Server {
	if opts.Clock == nil {
		panic("serve: Options.Clock is required (wire time.Now in package main)")
	}
	s := &Server{
		backend:    backend,
		opts:       opts,
		gate:       newGate(maxConcurrent, queueDepth),
		breaker:    newBreaker(opts.Clock),
		results:    newResultCache(),
		stmts:      newStmtCache(),
		planRoutes: map[string]int64{},

		loggedFallbacks: map[string]bool{},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.Handle("/api/query", s.withAdmission(http.HandlerFunc(s.handleQuery)))
	s.mux.Handle("/api/snapshot/companies", s.withAdmission(s.snapshotHandler(
		func(fs *core.FrozenSnapshot) any { return fs.Companies })))
	s.mux.Handle("/api/snapshot/investors", s.withAdmission(s.snapshotHandler(
		func(fs *core.FrozenSnapshot) any { return fs.Investors })))
	s.mux.Handle("/api/snapshot/stats", s.withAdmission(s.snapshotHandler(
		func(fs *core.FrozenSnapshot) any {
			return SnapshotStats{
				Snapshot:  fs.Snapshot,
				Companies: len(fs.Companies),
				Investors: len(fs.Investors),
				Graph:     core.InvestorGraphStats(fs.Graph),
			}
		})))
	return s
}

// SnapshotStats is the /api/snapshot/stats response body.
type SnapshotStats struct {
	Snapshot  int             `json:"snapshot"`
	Companies int             `json:"companies"`
	Investors int             `json:"investors"`
	Graph     core.GraphStats `json:"graph"`
}

// Handler returns the root handler. With a ReplicaID configured it
// stamps HeaderReplica on every response first.
func (s *Server) Handler() http.Handler {
	if s.opts.ReplicaID == "" {
		return s.mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderReplica, s.opts.ReplicaID)
		s.mux.ServeHTTP(w, r)
	})
}

// BeginDrain flips the server into drain mode: readyz reports 503 so
// load balancers stop routing here, and new /api requests are refused
// while in-flight ones finish. crowdscope serve calls it on SIGTERM
// before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Refresh observes the store's newest frozen snapshot and, when the
// cache lags it (or is empty), brings the cache up to it and swaps the
// result in as last-good. With DeltaRefresh enabled it first tries to
// roll the served snapshot forward by applying the intervening
// frozen/delta-N artifacts in memory; on any delta failure it loads the
// whole artifact through the breaker as before. On any failure the
// previous snapshot keeps serving and the cache is marked stale.
//
// Refresh is prepare + install: every load, decode and delta apply runs
// against local state with the previous snapshot still serving, and the
// only mutation in-flight requests can observe is the final pointer
// swap in install. Nothing heavy happens between "new snapshot ready"
// and "new snapshot serving".
func (s *Server) Refresh(ctx context.Context) error {
	fs, viaDeltas, err := s.prepareRefresh(ctx)
	if err != nil {
		s.cache.markStale()
		return fmt.Errorf("serve: refresh: %w", err)
	}
	if fs == nil {
		return nil // already serving the latest snapshot
	}
	s.install(fs, viaDeltas)
	return nil
}

// prepareRefresh does the heavy half of a refresh off the swap path: it
// observes the latest frozen snapshot and materializes it in memory,
// via deltas when possible. It returns (nil, false, nil) when the cache
// is already current and never touches the served snapshot.
func (s *Server) prepareRefresh(ctx context.Context) (fs *core.FrozenSnapshot, viaDeltas bool, err error) {
	var latest int
	err = s.breaker.do(ctx, func(ctx context.Context) error {
		var err error
		latest, err = s.backend.LatestFrozen(ctx)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	s.cache.observeLatest(latest)
	cur, _ := s.cache.get()
	if cur != nil && cur.Snapshot >= latest {
		return nil, false, nil
	}
	if fs, ok := s.refreshViaDeltas(ctx, cur, latest); ok {
		return fs, true, nil
	}
	err = s.breaker.do(ctx, func(ctx context.Context) error {
		var err error
		fs, err = s.backend.LoadFrozen(ctx, latest)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return fs, false, nil
}

// install publishes a prepared snapshot: one pointer swap plus the
// derived-state reset. This is the entire serving pause of a hot swap.
func (s *Server) install(fs *core.FrozenSnapshot, viaDeltas bool) {
	s.cache.swap(fs)
	s.hotSwapReset(fs.Snapshot)
	if viaDeltas {
		s.deltaRefreshes.Add(1)
	} else {
		s.fullReloads.Add(1)
	}
}

// refreshViaDeltas rolls cur forward to latest by having the backend
// apply each intervening delta in memory, through the breaker.
// ok is false whenever the incremental path cannot produce latest —
// delta refresh disabled, nothing served yet, or any load/apply
// failure — and the caller falls back to a full reload (logged, not
// surfaced: the artifacts are equivalent by construction).
func (s *Server) refreshViaDeltas(ctx context.Context, cur *core.FrozenSnapshot, latest int) (*core.FrozenSnapshot, bool) {
	if !s.opts.DeltaRefresh || cur == nil {
		return nil, false
	}
	fs := cur
	for v := fs.Snapshot + 1; v <= latest; v++ {
		err := s.breaker.do(ctx, func(ctx context.Context) error {
			var err error
			fs, err = s.backend.ApplyDelta(ctx, fs, v)
			return err
		})
		if err != nil {
			if s.opts.Logf != nil {
				s.opts.Logf("serve: delta refresh to %d failed at %d, falling back to full reload: %v", latest, v, err)
			}
			return nil, false
		}
	}
	return fs, true
}

// hotSwapReset drops per-snapshot derived state after a snapshot swap:
// cached query results (computed against the old snapshot), the
// plan-choice tallies (which describe the old generation's traffic) and
// which fallbacks that generation already logged.
func (s *Server) hotSwapReset(snap int) {
	s.results.invalidate(snap)
	s.planMu.Lock()
	s.planRoutes = map[string]int64{}
	s.lastFallback = ""
	s.loggedFallbacks = map[string]bool{}
	s.planMu.Unlock()
}

// tallyPlan records one executed query plan for /statusz and logs scan
// fallbacks. An unindexed or unpushable statement is routine — an ad-hoc
// session is nothing else — so each kind of reason (its text up to the
// per-statement numbers) is logged once per snapshot generation; a
// broken index is not routine and is logged every time.
func (s *Server) tallyPlan(p *query.Plan) {
	kind, _, _ := strings.Cut(p.Fallback, " (")
	s.planMu.Lock()
	s.planRoutes[p.Route]++
	if p.Fallback != "" {
		s.lastFallback = p.Fallback
	}
	log := p.Fallback != "" && (strings.HasPrefix(kind, "index unavailable") || !s.loggedFallbacks[kind])
	if log {
		s.loggedFallbacks[kind] = true
	}
	s.planMu.Unlock()
	if log && s.opts.Logf != nil {
		s.opts.Logf("serve: query plan fell back to scan: %s", p.Explain())
	}
}

// ensureFresh opportunistically refreshes the cache before serving a
// snapshot route. It single-flights: when another request is already
// refreshing, or the breaker is open, the caller serves whatever is
// cached. Failures are deliberately swallowed — degradation, not
// errors, is the contract for snapshot routes.
func (s *Server) ensureFresh(ctx context.Context) {
	if !s.refreshMu.TryLock() {
		return
	}
	defer s.refreshMu.Unlock()
	//lint:ignore lockdisc refreshMu held across Refresh IS the single-flight: TryLock turns every concurrent caller into a cache hit instead of a pile-up
	_ = s.Refresh(ctx) //lint:ignore errwrap a failed opportunistic refresh must not fail the request; the cache is marked stale and the route degrades
}

// ---- Wire plumbing (the apiserver's conventions: JSON error bodies,
// Retry-After in whole seconds) ----

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//lint:ignore errwrap the status line is already on the wire; an encode failure here has no channel back to the client
	_ = json.NewEncoder(w).Encode(v)
}

// withAdmission is the admission-control middleware: drain refusal,
// per-route deadline, then the bounded gate. Shed requests get 429 with
// Retry-After instead of waiting unboundedly.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Connection", "close")
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is draining"})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), routeTimeout)
		defer cancel()
		if err := s.gate.acquire(ctx); err != nil {
			// Queue full and deadline-expired-while-queued both mean the
			// same thing to the client: overloaded, come back later.
			s.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: "server overloaded; retry later"})
			return
		}
		defer s.gate.release()
		s.served.Add(1)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ---- Routes ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "draining"})
		return
	}
	if fs, _ := s.cache.get(); fs == nil {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "no snapshot loaded"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// Status is the /statusz observability snapshot. Cache hit/miss
// counters and plan tallies reset on every snapshot hot-swap — they
// describe the current generation's traffic; the invalidation counter
// is cumulative and counts the swaps themselves.
type Status struct {
	InFlight           int              `json:"in_flight"`
	Queued             int              `json:"queued"`
	Shed               int64            `json:"shed"`
	Served             int64            `json:"served"`
	Degraded           int64            `json:"degraded"`
	BreakerState       string           `json:"breaker_state"`
	BreakerTrips       int64            `json:"breaker_trips"`
	Snapshot           int              `json:"snapshot"`
	Stale              bool             `json:"stale"`
	DeltaRefreshes     int64            `json:"delta_refreshes"`
	FullReloads        int64            `json:"full_reloads"`
	Draining           bool             `json:"draining"`
	CacheHits          int64            `json:"result_cache_hits"`
	CacheMisses        int64            `json:"result_cache_misses"`
	CacheInvalidations int64            `json:"result_cache_invalidations"`
	CacheEntries       int              `json:"result_cache_entries"`
	PlanRoutes         map[string]int64 `json:"plan_routes,omitempty"`
	LastPlanFallback   string           `json:"last_plan_fallback,omitempty"`
	Replica            string           `json:"replica,omitempty"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := Status{
		InFlight:       s.gate.inFlight(),
		Queued:         s.gate.queued(),
		Shed:           s.shed.Load(),
		Served:         s.served.Load(),
		Degraded:       s.degraded.Load(),
		BreakerState:   s.breaker.currentState().String(),
		BreakerTrips:   s.breaker.tripCount(),
		Snapshot:       -1,
		DeltaRefreshes: s.deltaRefreshes.Load(),
		FullReloads:    s.fullReloads.Load(),
		Draining:       s.draining.Load(),
		Replica:        s.opts.ReplicaID,
	}
	if fs, stale := s.cache.get(); fs != nil {
		st.Snapshot = fs.Snapshot
		st.Stale = stale
	}
	st.CacheHits, st.CacheMisses, st.CacheInvalidations, st.CacheEntries = s.results.stats()
	s.planMu.Lock()
	if len(s.planRoutes) > 0 {
		st.PlanRoutes = make(map[string]int64, len(s.planRoutes))
		for k, v := range s.planRoutes {
			st.PlanRoutes[k] = v
		}
	}
	st.LastPlanFallback = s.lastFallback
	s.planMu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// breakerSource routes query record streams through the circuit
// breaker so a misbehaving store trips it and subsequent queries fail
// fast. Index probes deliberately bypass the breaker: TableIndex is a
// cached metadata lookup, and its failure already degrades gracefully
// to a scan inside the planner.
type breakerSource struct{ s *Server }

func (bs breakerSource) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(query.Record) error) error {
	return bs.s.breaker.do(ctx, func(ctx context.Context) error {
		return bs.s.backend.ReadRecords(ctx, ns, fields, fn)
	})
}

func (bs breakerSource) TableIndex(ns string) (*index.TableIndex, error) {
	return bs.s.backend.TableIndex(ns)
}

func (bs breakerSource) ReadRows(ctx context.Context, ns string, rows []int32, fields [][]string, fn func(query.Record) error) error {
	return bs.s.breaker.do(ctx, func(ctx context.Context) error {
		return bs.s.backend.ReadRows(ctx, ns, rows, fields, fn)
	})
}

var _ query.IndexedSource = breakerSource{}

// writeJSONBody replays an already-marshalled JSON response body.
func writeJSONBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//lint:ignore errwrap the status line is already on the wire; a write failure here has no channel back to the client
	_, _ = w.Write(body)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Parsing is memoized on the raw query string: repeated statements
	// (the result cache's whole clientele) skip URL decoding, parsing
	// and canonicalization outright.
	ent := s.stmts.get(r.URL.RawQuery)
	if ent == nil {
		stmt := r.URL.Query().Get("q")
		if stmt == "" {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "missing q parameter"})
			return
		}
		q, err := query.Parse(stmt)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return
		}
		ent = &stmtEntry{q: q, key: q.Canonical()}
		s.stmts.put(r.URL.RawQuery, ent)
	}
	key := ent.key
	if body, ok := s.results.get(key); ok {
		writeJSONBody(w, http.StatusOK, body)
		return
	}
	res, plan, err := ent.q.Explain(r.Context(), breakerSource{s})
	if plan != nil {
		s.tallyPlan(plan)
	}
	switch {
	case err == nil:
		// Marshal once: the same bytes go on the wire now and into the
		// cache, so a hit replays a byte-identical response (writeJSON's
		// encoder emits marshal output plus a trailing newline).
		body, merr := json.Marshal(res)
		if merr != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: merr.Error()})
			return
		}
		body = append(body, '\n')
		s.results.put(key, body)
		writeJSONBody(w, http.StatusOK, body)
	case errors.Is(err, ErrBreakerOpen):
		w.Header().Set("Retry-After", strconv.Itoa(s.breaker.retryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "store circuit breaker open; retry later"})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, apiError{Error: "query exceeded the route deadline"})
	case errors.Is(err, store.ErrNotExist):
		// A namespace, snapshot or table the statement names does not
		// exist: the client's error, like a parse error.
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
	case errors.Is(err, query.ErrBadStatement):
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	default:
		// Any other failure to execute a statement that parsed is a
		// backend problem, not a client one.
		writeJSON(w, http.StatusBadGateway, apiError{Error: err.Error()})
	}
}

// snapshotHandler builds a degradable route over the cached snapshot:
// try a (single-flighted, breaker-guarded) refresh, then serve whatever
// the cache holds — marked stale when the store is ahead or
// unreachable. Only a completely empty cache yields an error response.
func (s *Server) snapshotHandler(project func(*core.FrozenSnapshot) any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ensureFresh(r.Context())
		fs, stale := s.cache.get()
		if fs == nil {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "no snapshot available yet"})
			return
		}
		if stale {
			s.degraded.Add(1)
			w.Header().Set(HeaderStale, fmt.Sprintf("snap-%06d", fs.Snapshot))
		}
		writeJSON(w, http.StatusOK, project(fs))
	})
}
