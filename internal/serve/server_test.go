package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"crowdscope/internal/core"
	"crowdscope/internal/fleet/front"
	"crowdscope/internal/index"
	"crowdscope/internal/leakcheck"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

func TestServerLifecycle(t *testing.T) {
	st := testStore(t, 1)
	clk := newFakeClock()
	srv := New(&StoreBackend{Store: st}, testOptions(clk))
	h := srv.Handler()

	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before first snapshot = %d, want 503", rec.Code)
	}
	if err := srv.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after refresh = %d, want 200", rec.Code)
	}

	rec := get(t, h, "/api/snapshot/companies")
	if rec.Code != http.StatusOK {
		t.Fatalf("companies = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(HeaderStale); got != "" {
		t.Fatalf("fresh response carries %s: %q", HeaderStale, got)
	}
	var companies []core.Company
	if err := json.Unmarshal(rec.Body.Bytes(), &companies); err != nil {
		t.Fatal(err)
	}
	if len(companies) != 2 || companies[0].ID != "co-1" {
		t.Fatalf("unexpected companies payload: %+v", companies)
	}

	rec = get(t, h, "/api/snapshot/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var stats SnapshotStats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Snapshot != 0 || stats.Companies != 2 || stats.Investors != 2 || stats.Graph.Edges != 3 {
		t.Fatalf("unexpected stats: %+v", stats)
	}

	rec = get(t, h, "/statusz")
	var status Status
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.Snapshot != 0 || status.Stale || status.Draining || status.BreakerState != "closed" {
		t.Fatalf("unexpected statusz: %+v", status)
	}
	if status.Served != 2 {
		t.Fatalf("served = %d, want 2", status.Served)
	}
}

func TestServerQueryRoute(t *testing.T) {
	st := testStore(t, 1)
	clk := newFakeClock()
	srv := New(&StoreBackend{Store: st}, testOptions(clk))
	h := srv.Handler()

	rec := get(t, h, queryURL("SELECT COUNT(*) AS n FROM users"))
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body)
	}
	var res query.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != float64(8) {
		t.Fatalf("unexpected result: %+v", res)
	}

	// Frozen snapshots are queryable through their virtual namespaces.
	rec = get(t, h, queryURL("SELECT COUNT(*) AS n FROM frozen/snap-000000/companies"))
	if rec.Code != http.StatusOK {
		t.Fatalf("frozen query = %d: %s", rec.Code, rec.Body)
	}

	if rec := get(t, h, "/api/query"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing q = %d, want 400", rec.Code)
	}
	if rec := get(t, h, queryURL("SELECT FROM")); rec.Code != http.StatusBadRequest {
		t.Fatalf("parse error = %d, want 400", rec.Code)
	}
}

func TestServerQueryBackendErrorIs502(t *testing.T) {
	clk := newFakeClock()
	srv := New(&stubBackend{scanErr: errors.New("disk on fire")}, testOptions(clk))
	rec := get(t, srv.Handler(), queryURL("SELECT COUNT(*) AS n FROM users"))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("backend failure = %d, want 502: %s", rec.Code, rec.Body)
	}
}

// A statement that names a namespace, snapshot or table the store does
// not hold answers 404, and one that cannot execute answers 400: the
// client's error, not the backend's. Neither counts against the
// breaker, so a dozen of them leave the route open, and through a
// front neither ejects a replica.
func TestStatementErrorsAreClientErrors(t *testing.T) {
	st := testStore(t, 1)
	var missing []string
	for i := 0; i < 12; i++ {
		switch i % 4 {
		case 0:
			missing = append(missing, fmt.Sprintf("SELECT ID FROM frozen/snap-%d/companies", 9+i))
		case 1:
			missing = append(missing, fmt.Sprintf("SELECT ID FROM frozen/snap-0/startups%d", i))
		case 2:
			missing = append(missing, fmt.Sprintf("SELECT ID FROM frozen/chain/0-%d/investors", 9+i))
		case 3:
			missing = append(missing, fmt.Sprintf("SELECT id FROM nosuch%d", i))
		}
	}
	bad := []string{
		"SELECT ID FROM frozen/snap-0/companies ORDER BY Nope",
		"SELECT COUNT(*) > 1 FROM frozen/snap-0/companies",
	}
	const valid = "SELECT COUNT(*) AS n FROM frozen/snap-0/companies"

	srv := New(&StoreBackend{Store: st}, testOptions(newFakeClock()))
	h := srv.Handler()
	for _, stmt := range missing {
		if rec := get(t, h, queryURL(stmt)); rec.Code != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404: %s", stmt, rec.Code, rec.Body)
		}
	}
	for _, stmt := range bad {
		if rec := get(t, h, queryURL(stmt)); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400: %s", stmt, rec.Code, rec.Body)
		}
	}
	if rec := get(t, h, queryURL(valid)); rec.Code != http.StatusOK {
		t.Fatalf("%s after the statement errors = %d, want 200: %s", valid, rec.Code, rec.Body)
	}
	if trips := srv.breaker.tripCount(); trips != 0 {
		t.Fatalf("statement errors tripped the breaker %d times", trips)
	}

	var targets []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(New(&StoreBackend{Store: st}, testOptions(newFakeClock())).Handler())
		t.Cleanup(ts.Close)
		targets = append(targets, ts.URL)
	}
	f, err := front.New(targets, front.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range append(missing, bad...) {
		if rec := get(t, f.Handler(), queryURL(stmt)); rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("%s through the front = %d, want 4xx: %s", stmt, rec.Code, rec.Body)
		}
	}
	if rec := get(t, f.Handler(), queryURL(valid)); rec.Code != http.StatusOK {
		t.Fatalf("%s through the front = %d, want 200: %s", valid, rec.Code, rec.Body)
	}
	if n := f.Ejections(); n != 0 {
		t.Fatalf("statement errors ejected a replica %d times", n)
	}
}

// TestEmptyStoreRefreshNeverTripsBreaker pins that a store with no
// frozen snapshot yet is not a sick backend: refreshes over it fail with
// store.ErrNotExist, never open the breaker, and the first Refresh after
// a snapshot lands installs it with no cooldown in between.
func TestEmptyStoreRefreshNeverTripsBreaker(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	srv := New(&StoreBackend{Store: st}, testOptions(clk))
	for i := 0; i < 12; i++ {
		err := srv.Refresh(context.Background())
		if !errors.Is(err, store.ErrNotExist) {
			t.Fatalf("refresh %d over an empty store = %v, want store.ErrNotExist", i, err)
		}
		clk.Advance(100 * time.Millisecond)
	}
	if trips := srv.breaker.tripCount(); trips != 0 {
		t.Fatalf("an empty store tripped the breaker %d times", trips)
	}
	putFrozen(t, st, 0)
	if err := srv.Refresh(context.Background()); err != nil {
		t.Fatalf("first refresh after the snapshot landed: %v", err)
	}
	if rec := get(t, srv.Handler(), "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after the snapshot landed = %d, want 200", rec.Code)
	}
}

func TestServerQueryDeadlineIs504(t *testing.T) {
	st := testStore(t, 1)
	srv := New(&StoreBackend{Store: st}, testOptions(newFakeClock()))
	// The route deadline derives from the request's context, which has
	// already expired before the scan starts.
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, queryURL("SELECT COUNT(*) AS n FROM users"), nil).WithContext(ctx))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline = %d, want 504: %s", rec.Code, rec.Body)
	}
}

// deadlineBackend records the deadline of the context each query read
// runs under.
type deadlineBackend struct {
	Backend
	mu        sync.Mutex
	deadlines []time.Time
	missing   int
}

func (b *deadlineBackend) record(ctx context.Context) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if d, ok := ctx.Deadline(); ok {
		b.deadlines = append(b.deadlines, d)
	} else {
		b.missing++
	}
}

func (b *deadlineBackend) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(query.Record) error) error {
	b.record(ctx)
	return b.Backend.ReadRecords(ctx, ns, fields, fn)
}

func (b *deadlineBackend) ReadRows(ctx context.Context, ns string, rows []int32, fields [][]string, fn func(query.Record) error) error {
	b.record(ctx)
	return b.Backend.ReadRows(ctx, ns, rows, fields, fn)
}

// TestServerRouteDeadline pins deadline propagation: a request that
// arrives without a deadline reaches the backend under one set
// routeTimeout after admission.
func TestServerRouteDeadline(t *testing.T) {
	b := &deadlineBackend{Backend: &StoreBackend{Store: testStore(t, 1)}}
	srv := New(b, testOptions(newFakeClock()))
	start := time.Now()
	rec := get(t, srv.Handler(), queryURL("SELECT COUNT(*) AS n FROM users"))
	end := time.Now()
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.missing > 0 || len(b.deadlines) == 0 {
		t.Fatalf("backend reads: %d with a deadline, %d without", len(b.deadlines), b.missing)
	}
	for _, d := range b.deadlines {
		if d.Before(start.Add(routeTimeout)) || d.After(end.Add(routeTimeout)) {
			t.Fatalf("read deadline %v after the request started, want %v", d.Sub(start), routeTimeout)
		}
	}
}

func TestServerDegradesToLastGoodSnapshot(t *testing.T) {
	st := testStore(t, 2)
	clk := newFakeClock()
	faulty := NewFaultyBackend(&StoreBackend{Store: st}, FaultConfig{Seed: 1, Rate: 1.0})
	faulty.SetEnabled(false)
	srv := New(faulty, testOptions(clk))
	h := srv.Handler()
	if err := srv.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A newer artifact lands, but the store starts failing before the
	// server can load it: degradable routes keep serving the last-good
	// snapshot, marked stale, instead of erroring.
	putFrozen(t, st, 2)
	faulty.SetEnabled(true)
	rec := get(t, h, "/api/snapshot/companies")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded route = %d, want 200: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(HeaderStale); got != "snap-000001" {
		t.Fatalf("%s = %q, want snap-000001", HeaderStale, got)
	}
	if srv.degraded.Load() == 0 {
		t.Fatal("degraded counter did not advance")
	}

	// Store recovers: the next request refreshes to the new snapshot and
	// the stale marker disappears.
	faulty.SetEnabled(false)
	rec = get(t, h, "/api/snapshot/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered route = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(HeaderStale); got != "" {
		t.Fatalf("recovered response still stale: %q", got)
	}
	var stats SnapshotStats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Snapshot != 2 {
		t.Fatalf("recovered snapshot = %d, want 2", stats.Snapshot)
	}
}

// blockingBackend parks every scan until release is closed, letting
// tests fill the admission gate deterministically.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) LatestFrozen(ctx context.Context) (int, error) { return 0, nil }

func (b *blockingBackend) LoadFrozen(ctx context.Context, snap int) (*core.FrozenSnapshot, error) {
	return nil, errors.New("no snapshot")
}

func (b *blockingBackend) ApplyDelta(ctx context.Context, base *core.FrozenSnapshot, snap int) (*core.FrozenSnapshot, error) {
	return nil, errors.New("no delta")
}

func (b *blockingBackend) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(query.Record) error) error {
	b.entered <- struct{}{}
	select {
	case <-b.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *blockingBackend) TableIndex(ns string) (*index.TableIndex, error) { return nil, nil }

func (b *blockingBackend) ReadRows(ctx context.Context, ns string, rows []int32, fields [][]string, fn func(query.Record) error) error {
	return b.ReadRecords(ctx, ns, fields, fn)
}

func TestServerShedsWithRetryAfter(t *testing.T) {
	bb := &blockingBackend{entered: make(chan struct{}, 8), release: make(chan struct{})}
	srv := New(bb, testOptions(newFakeClock()))
	srv.gate = newGate(1, 1)
	h := srv.Handler()

	codes := make(chan int, 2)
	go func() { codes <- get(t, h, queryURL("SELECT COUNT(*) AS n FROM users")).Code }()
	<-bb.entered // first request holds the only slot, parked in its scan
	go func() { codes <- get(t, h, queryURL("SELECT COUNT(*) AS n FROM users")).Code }()
	waitFor(t, func() bool { return srv.gate.queued() == 1 })

	// Slot busy, queue full: the third arrival is shed immediately.
	rec := get(t, h, queryURL("SELECT COUNT(*) AS n FROM users"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overload = %d, want 429: %s", rec.Code, rec.Body)
	}
	if got, want := rec.Header().Get("Retry-After"), strconv.Itoa(retryAfterSecs); got != want {
		t.Fatalf("Retry-After = %q, want %s", got, want)
	}
	if got := srv.shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}

	close(bb.release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("blocked request %d finished with %d", i, code)
		}
	}
}

// gaugeBackend tracks the peak number of concurrent scans flowing into
// the backend — the observable form of the admission bound.
type gaugeBackend struct {
	Backend
	mu       sync.Mutex
	cur, max int
}

func (g *gaugeBackend) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(query.Record) error) error {
	g.mu.Lock()
	g.cur++
	if g.cur > g.max {
		g.max = g.cur
	}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.cur--
		g.mu.Unlock()
	}()
	time.Sleep(2 * time.Millisecond) // hold the slot long enough to overlap
	return g.Backend.ReadRecords(ctx, ns, fields, fn)
}

func (g *gaugeBackend) peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

func TestServerConcurrencyBoundNeverExceeded(t *testing.T) {
	leakcheck.Check(t)
	st := testStore(t, 1)
	gb := &gaugeBackend{Backend: &StoreBackend{Store: st}}
	const bound = 3
	srv := New(gb, testOptions(newFakeClock()))
	srv.gate = newGate(bound, bound)
	h := srv.Handler()

	const n = 24
	start := make(chan struct{})
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			codes <- get(t, h, queryURL("SELECT COUNT(*) AS n FROM users")).Code
		}()
	}
	close(start)
	wg.Wait()
	close(codes)

	var ok, shed int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if ok+shed != n {
		t.Fatalf("ok %d + shed %d != %d", ok, shed, n)
	}
	if got := gb.peak(); got > bound {
		t.Fatalf("peak concurrency %d exceeded the bound %d", got, bound)
	}
	if got := srv.shed.Load(); got != int64(shed) {
		t.Fatalf("shed counter %d != observed 429s %d", got, shed)
	}
}

func TestServerDrain(t *testing.T) {
	leakcheck.Check(t)
	st := testStore(t, 1)
	clk := newFakeClock()
	srv := New(&StoreBackend{Store: st}, testOptions(clk))
	if err := srv.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	srv.BeginDrain()
	if !srv.draining.Load() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", rec.Code)
	}
	rec := get(t, h, queryURL("SELECT COUNT(*) AS n FROM users"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining api = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Connection"); got != "close" {
		t.Fatalf("Connection = %q, want close", got)
	}
	// Liveness stays green so the process is not killed mid-drain.
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200", rec.Code)
	}
}

// TestServerDrainGoroutineCountRegression pins the SIGTERM-drain
// goroutine story: a parked slot holder plus queued waiters whose
// contexts die mid-wait must all exit, returning the process to its
// pre-traffic goroutine count. This is the regression net for the gate's
// deadline-aware acquire — a waiter that ignored ctx.Done would park on
// the queue channel forever and trip both the count pin and leakcheck.
func TestServerDrainGoroutineCountRegression(t *testing.T) {
	leakcheck.Check(t)
	bb := &blockingBackend{entered: make(chan struct{}, 16), release: make(chan struct{})}
	srv := New(bb, testOptions(newFakeClock()))
	srv.gate = newGate(1, 4)
	h := srv.Handler()
	baseline := leakcheck.Count()

	// One request parks in the backend holding the only slot.
	holder := make(chan struct{})
	go func() {
		defer close(holder)
		get(t, h, queryURL(chaosQuery))
	}()
	<-bb.entered

	// Three more queue behind it, then their contexts are cancelled —
	// the SIGTERM shape: the load balancer gives up on queued requests.
	ctx, cancel := context.WithCancel(context.Background())
	var waiters sync.WaitGroup
	for i := 0; i < 3; i++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			req := httptest.NewRequest(http.MethodGet, queryURL(chaosQuery), nil).WithContext(ctx)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	waitFor(t, func() bool { return srv.gate.queued() >= 1 })
	cancel()
	waiters.Wait()

	srv.BeginDrain()
	close(bb.release)
	<-holder
	waitFor(t, func() bool { return leakcheck.Count() <= baseline })
}
