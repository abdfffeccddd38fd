package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"crowdscope/internal/core"
	"crowdscope/internal/graph"
	"crowdscope/internal/index"
	"crowdscope/internal/query"
	"crowdscope/internal/snapshot"
	"crowdscope/internal/store"
)

// fakeClock is an injectable apiserver.Clock for deterministic breaker
// and shed tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testSnapshot builds the small deterministic frozen snapshot the serve
// tests share, shaped like BuildFrozen's output but built directly so
// tests do not need a full crawl pipeline.
func testSnapshot(snap int) *core.FrozenSnapshot {
	investors := []core.Investor{
		{ID: "inv-a", Investments: []string{"co-1", "co-2"}, Follows: 4 + snap},
		{ID: "inv-b", Investments: []string{"co-1"}, Follows: 1},
	}
	return &core.FrozenSnapshot{
		Snapshot: snap,
		Companies: []core.Company{
			{ID: "co-1", Name: "Acme", Raising: true, HasTwitter: true, Likes: 10 + snap},
			{ID: "co-2", Name: "Bolt", Funded: true, Followers: 7},
		},
		Investors: investors,
		Graph:     investorGraph(investors),
	}
}

// investorGraph builds the investment graph of ID-sorted investors, as
// a frozen snapshot's graph is built.
func investorGraph(investors []core.Investor) *graph.FrozenBipartite {
	rows := make([]graph.AdjacencyRow, len(investors))
	for i, inv := range investors {
		rows[i] = graph.AdjacencyRow{Left: inv.ID, Rights: inv.Investments}
	}
	g, err := graph.FromRows(rows)
	if err != nil {
		panic(err)
	}
	return g
}

// putFrozen commits the frozen snapshot artifact only — deliberately no
// secondary-index blob, matching snapshots frozen before indexing
// existed (and keeping the chaos traces' store layout unchanged).
func putFrozen(t testing.TB, st *store.Store, snap int) {
	t.Helper()
	fs := testSnapshot(snap)
	data, err := core.EncodeFrozen(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBlob(core.FrozenNamespace(snap), snapshot.FormatVersion, data); err != nil {
		t.Fatal(err)
	}
}

// putIndexedFrozen commits the same snapshot through core.CommitFrozen,
// so the secondary-index blob rides along and query routes can exercise
// the planner's index paths.
func putIndexedFrozen(t testing.TB, st *store.Store, snap int) {
	t.Helper()
	if err := core.CommitFrozen(context.Background(), st, testSnapshot(snap)); err != nil {
		t.Fatal(err)
	}
}

// testStore builds a store holding `snaps` frozen snapshots (tags
// 0..snaps-1) plus a small "users" JSON namespace for query-route tests.
// Contents are fully deterministic.
func testStore(t testing.TB, snaps int) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < snaps; i++ {
		putFrozen(t, st, i)
	}
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
	return st
}

// testOptions is the shared deterministic server configuration.
func testOptions(clk *fakeClock) Options {
	return Options{Clock: clk.Now}
}

// get performs one in-process request and returns the recorder.
func get(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func queryURL(stmt string) string {
	return "/api/query?q=" + url.QueryEscape(stmt)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stubBackend is a minimal canned Backend for unit tests.
type stubBackend struct {
	latest  int
	fs      *core.FrozenSnapshot
	scanErr error
}

func (s *stubBackend) LatestFrozen(ctx context.Context) (int, error) { return s.latest, nil }

func (s *stubBackend) LoadFrozen(ctx context.Context, snap int) (*core.FrozenSnapshot, error) {
	return s.fs, nil
}

// ApplyDelta fails: the stub serves whole snapshots only, so a delta
// refresh over it falls back to a full reload.
func (s *stubBackend) ApplyDelta(ctx context.Context, base *core.FrozenSnapshot, snap int) (*core.FrozenSnapshot, error) {
	return nil, errors.New("stub backend serves no deltas")
}

func (s *stubBackend) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(query.Record) error) error {
	return s.scanErr
}

func (s *stubBackend) TableIndex(ns string) (*index.TableIndex, error) { return nil, nil }

func (s *stubBackend) ReadRows(ctx context.Context, ns string, rows []int32, fields [][]string, fn func(query.Record) error) error {
	return s.scanErr
}
