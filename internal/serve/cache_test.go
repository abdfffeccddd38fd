package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"crowdscope/internal/core"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// statuszOf fetches and decodes /statusz.
func statuszOf(t *testing.T, h http.Handler) Status {
	t.Helper()
	rec := get(t, h, "/statusz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz = %d, want 200", rec.Code)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// indexedServer builds a refreshed server over a store holding one
// indexed frozen snapshot (tag 0) plus the "users" JSON namespace.
func indexedServer(t *testing.T, mutate func(*Options)) (*Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putIndexedFrozen(t, st, 0)
	w, err := st.Writer("users", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := w.Append("", map[string]any{"id": fmt.Sprintf("u%02d", i), "follows": i * 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	opts := testOptions(newFakeClock())
	if mutate != nil {
		mutate(&opts)
	}
	srv := New(&StoreBackend{Store: st}, opts)
	if err := srv.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv, st
}

func TestQueryResultCacheHitAndHotSwapInvalidation(t *testing.T) {
	srv, st := indexedServer(t, nil)
	h := srv.Handler()
	stmt := "SELECT ID, Likes FROM frozen/snap-0/companies WHERE Raising"

	first := get(t, h, queryURL(stmt))
	if first.Code != http.StatusOK {
		t.Fatalf("first request = %d: %s", first.Code, first.Body)
	}
	second := get(t, h, queryURL(stmt))
	if second.Code != http.StatusOK {
		t.Fatalf("second request = %d: %s", second.Code, second.Body)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("cache hit body diverged:\n first=%q\nsecond=%q", first.Body, second.Body)
	}

	status := statuszOf(t, h)
	if status.CacheHits != 1 || status.CacheMisses != 1 || status.CacheEntries != 1 {
		t.Fatalf("cache stats = hits %d misses %d entries %d, want 1/1/1",
			status.CacheHits, status.CacheMisses, status.CacheEntries)
	}
	// The second request was served from the cache without re-planning.
	if got := status.PlanRoutes[query.RouteIndex]; got != 1 {
		t.Fatalf("plan_routes[index] = %d, want 1 (cache hits must not re-plan); all: %v",
			got, status.PlanRoutes)
	}

	// A hot-swap installs a fresh cache generation and resets the
	// per-generation counters and plan tallies.
	before := status.CacheInvalidations
	putIndexedFrozen(t, st, 1)
	if err := srv.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	status = statuszOf(t, h)
	if status.CacheHits != 0 || status.CacheMisses != 0 || status.CacheEntries != 0 {
		t.Fatalf("post-swap cache stats = hits %d misses %d entries %d, want 0/0/0",
			status.CacheHits, status.CacheMisses, status.CacheEntries)
	}
	if status.CacheInvalidations != before+1 {
		t.Fatalf("invalidations = %d, want %d", status.CacheInvalidations, before+1)
	}
	if len(status.PlanRoutes) != 0 {
		t.Fatalf("plan tallies survived the hot-swap: %v", status.PlanRoutes)
	}

	// The same statement now misses against the new generation; the
	// result is unchanged because it names snapshot 0 explicitly.
	third := get(t, h, queryURL(stmt))
	if !bytes.Equal(third.Body.Bytes(), first.Body.Bytes()) {
		t.Fatalf("post-swap body diverged:\n first=%q\n third=%q", first.Body, third.Body)
	}
	status = statuszOf(t, h)
	if status.CacheHits != 0 || status.CacheMisses != 1 {
		t.Fatalf("post-swap requery stats = hits %d misses %d, want 0/1",
			status.CacheHits, status.CacheMisses)
	}
}

// logCapture is an Options.Logf that keeps every line.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// count reports how many captured lines contain substr.
func (l *logCapture) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

func TestQueryPlanRouteTalliesOnStatusz(t *testing.T) {
	var logs logCapture
	srv, _ := indexedServer(t, func(o *Options) { o.Logf = logs.logf })
	h := srv.Handler()

	for _, stmt := range []string{
		"SELECT COUNT(*) AS n FROM frozen/snap-0/companies WHERE Funded",            // index-count
		"SELECT ID FROM frozen/snap-0/companies WHERE Raising",                      // index
		"SELECT ID, Likes FROM frozen/snap-0/companies ORDER BY Likes DESC LIMIT 1", // index-topk
		"SELECT id FROM users WHERE follows >= 6",                                   // scan (unindexed ns)
	} {
		if rec := get(t, h, queryURL(stmt)); rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", stmt, rec.Code, rec.Body)
		}
	}

	status := statuszOf(t, h)
	want := map[string]int64{
		query.RouteIndexCount: 1,
		query.RouteIndex:      1,
		query.RouteIndexTopK:  1,
		query.RouteScan:       1,
	}
	for route, n := range want {
		if status.PlanRoutes[route] != n {
			t.Fatalf("plan_routes = %v, want %v", status.PlanRoutes, want)
		}
	}
	if status.LastPlanFallback == "" {
		t.Fatal("last_plan_fallback empty after a scan fallback")
	}

	if logs.count("fell back to scan") == 0 {
		t.Fatalf("no scan-fallback log line; logs: %q", logs.lines)
	}
}

// TestScanFallbackLoggedOncePerGeneration: an ad-hoc session is one
// routine scan fallback per request, and must not be one log line per
// request — each kind of reason is logged once per snapshot generation,
// while a broken index is logged every time. /statusz still counts all.
func TestScanFallbackLoggedOncePerGeneration(t *testing.T) {
	var logs logCapture
	srv, st := indexedServer(t, func(o *Options) { o.Logf = logs.logf })
	h := srv.Handler()
	unpushable := func(snap, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			stmt := fmt.Sprintf("SELECT ID FROM frozen/snap-%d/companies WHERE Name = \"n%d\"", snap, i)
			if rec := get(t, h, queryURL(stmt)); rec.Code != http.StatusOK {
				t.Fatalf("%s = %d: %s", stmt, rec.Code, rec.Body)
			}
		}
	}
	unpushable(0, 100)
	if got := logs.count("no indexable predicates"); got != 1 {
		t.Fatalf("100 unpushable statements logged %d lines, want 1: %q", got, logs.lines)
	}
	if got := statuszOf(t, h).PlanRoutes[query.RouteScan]; got != 100 {
		t.Fatalf("plan_routes[scan] = %d, want 100 (tallies must not be deduplicated)", got)
	}

	putIndexedFrozen(t, st, 1)
	if err := srv.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	unpushable(1, 10)
	if got := logs.count("no indexable predicates"); got != 2 {
		t.Fatalf("after a hot-swap the reason was logged %d times in all, want 2: %q", got, logs.lines)
	}

	// A corrupt index blob is never routine: every statement that hits
	// it says so.
	data, version, err := st.GetBlob(core.IndexNamespace(1))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	bad, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putFrozen(t, bad, 0)
	if err := bad.PutBlob(core.IndexNamespace(0), version, data); err != nil {
		t.Fatal(err)
	}
	var badLogs logCapture
	opts := testOptions(newFakeClock())
	opts.Logf = badLogs.logf
	srvBad := New(&StoreBackend{Store: bad}, opts)
	if err := srvBad.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		stmt := fmt.Sprintf("SELECT ID FROM frozen/snap-0/companies WHERE Raising AND Likes >= %d", i)
		if rec := get(t, srvBad.Handler(), queryURL(stmt)); rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", stmt, rec.Code, rec.Body)
		}
	}
	if got := badLogs.count("index unavailable"); got != 3 {
		t.Fatalf("3 statements over a corrupt index logged %d lines, want 3: %q", got, badLogs.lines)
	}
}

// TestIndexedRouteBodiesMatchScanRoute is the serve-level equivalence
// gate: the same statements against an indexed store and an unindexed
// copy of the same snapshot must produce byte-identical bodies, while
// actually taking different plan routes.
func TestIndexedRouteBodiesMatchScanRoute(t *testing.T) {
	srvIdx, _ := indexedServer(t, nil)

	stScan, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putFrozen(t, stScan, 0)
	srvScan := New(&StoreBackend{Store: stScan}, testOptions(newFakeClock()))
	if err := srvScan.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	stmts := []string{
		"SELECT ID, Likes FROM frozen/snap-0/companies WHERE Raising",
		"SELECT COUNT(*) AS n FROM frozen/snap-0/companies WHERE Funded",
		"SELECT ID, Likes FROM frozen/snap-0/companies ORDER BY Likes DESC LIMIT 1",
		"SELECT ID FROM frozen/snap-0/companies WHERE HasTwitter AND Followers < 5",
		"SELECT ID, Name FROM frozen/snap-0/companies WHERE Likes >= 10 ORDER BY ID",
	}
	for _, stmt := range stmts {
		a := get(t, srvIdx.Handler(), queryURL(stmt))
		b := get(t, srvScan.Handler(), queryURL(stmt))
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%s: codes %d/%d", stmt, a.Code, b.Code)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Fatalf("%s: index route diverged from scan route\nindex=%q\n scan=%q",
				stmt, a.Body, b.Body)
		}
	}

	if st := statuszOf(t, srvIdx.Handler()); st.PlanRoutes[query.RouteScan] != 0 {
		t.Fatalf("indexed server fell back to scan: %v", st.PlanRoutes)
	}
	if st := statuszOf(t, srvScan.Handler()); len(st.PlanRoutes) != 1 || st.PlanRoutes[query.RouteScan] == 0 {
		t.Fatalf("unindexed server took a non-scan route: %v", st.PlanRoutes)
	}
}
