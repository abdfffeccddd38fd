package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"crowdscope/internal/core"
	"crowdscope/internal/snapshot"
	"crowdscope/internal/store"
)

// benchWorldRows sizes the frozen table the query-route benchmarks run
// over: large enough that the scan route's per-request JSON decode
// dominates, the regime the planner exists for.
const benchWorldRows = 4096

// benchWorld builds a deterministic frozen snapshot with benchWorldRows
// companies; `WHERE Raising` selects ~14% of them, comfortably under
// the planner's selectivity gate.
func benchWorld() *core.FrozenSnapshot {
	companies := make([]core.Company, benchWorldRows)
	for i := range companies {
		companies[i] = core.Company{
			ID:             fmt.Sprintf("co-%05d", i),
			Name:           fmt.Sprintf("N%03d", i%40),
			Raising:        i%7 == 0,
			HasVideo:       i%3 == 0,
			HasFacebook:    i%2 == 1,
			HasTwitter:     i%2 == 0,
			Likes:          (i * 37) % 1000,
			Tweets:         (i * 17) % 500,
			Followers:      (i * 53) % 2000,
			Funded:         i%5 == 0,
			RoundCount:     i % 6,
			TotalRaisedUSD: int64((i * 101) % 5000000),
		}
	}
	investors := []core.Investor{
		{ID: "inv-0", Investments: []string{"co-00000"}, Follows: 1},
	}
	return &core.FrozenSnapshot{
		Snapshot:  0,
		Companies: companies,
		Investors: investors,
		Graph:     investorGraph(investors),
	}
}

// benchServer builds a refreshed server over the benchmark world,
// committed with or without its secondary-index blob.
func benchServer(b *testing.B, indexed bool) *Server {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	fs := benchWorld()
	if indexed {
		if err := core.CommitFrozen(context.Background(), st, fs); err != nil {
			b.Fatal(err)
		}
	} else {
		data, err := core.EncodeFrozen(fs)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.PutBlob(core.FrozenNamespace(0), snapshot.FormatVersion, data); err != nil {
			b.Fatal(err)
		}
	}
	srv := New(&StoreBackend{Store: st}, Options{Clock: time.Now})
	if err := srv.Refresh(context.Background()); err != nil {
		b.Fatal(err)
	}
	return srv
}

// benchQueryStmt is the indexed query-route workload: a COUNT the
// planner answers from a popcount of the Raising bitmap without reading a
// single record, and the scan route answers by decoding all 4096 rows.
const benchQueryStmt = "SELECT COUNT(*) AS n FROM frozen/snap-0/companies WHERE Raising"

// benchWriter is a minimal reusable ResponseWriter: the recorder's
// per-request allocations would otherwise dominate the measured tail
// with garbage-collection noise that is not the server's.
type benchWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *benchWriter) Header() http.Header         { return w.hdr }
func (w *benchWriter) WriteHeader(c int)           { w.code = c }
func (w *benchWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *benchWriter) reset() {
	w.code = 0
	w.buf.Reset()
	for k := range w.hdr {
		delete(w.hdr, k)
	}
}

// runQueryRouteBench drives b.N sequential requests, recording each
// latency, and reports the p50/p99 tail alongside ns/op. With miss set,
// the result cache is emptied before each request, outside its timed
// span, so every request plans and executes.
func runQueryRouteBench(b *testing.B, srv *Server, miss bool) {
	h := srv.Handler()
	path := queryURL(benchQueryStmt)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	// Warm every lazy path (snapshot decode, payload marshal, index
	// load, result cache) so the distribution measures steady state.
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, req)
	if warm.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", warm.Code, warm.Body)
	}
	w := &benchWriter{hdr: http.Header{}}
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		if miss {
			srv.results.invalidate(0)
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		lat[i] = time.Since(start)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99i := len(lat) * 99 / 100
	if p99i >= len(lat) {
		p99i = len(lat) - 1
	}
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(lat[p99i].Nanoseconds()), "p99-ns")
}

// BenchmarkQueryRouteScan is the baseline: the same statement against
// the same snapshot committed without its index blob, every request a
// result-cache miss, so every request decodes the full table.
func BenchmarkQueryRouteScan(b *testing.B) {
	runQueryRouteBench(b, benchServer(b, false), true)
}

// BenchmarkQueryRouteIndex measures the planner's index-count route,
// every request a result-cache miss: parse, plan, bitmap popcount,
// encode.
func BenchmarkQueryRouteIndex(b *testing.B) {
	runQueryRouteBench(b, benchServer(b, true), true)
}

// BenchmarkQueryRouteCacheHit measures a warmed result-cache hit:
// parse, canonicalize, replay the marshalled body.
func BenchmarkQueryRouteCacheHit(b *testing.B) {
	srv := benchServer(b, true)
	runQueryRouteBench(b, srv, false)
	hits, misses, _, _ := srv.results.stats()
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
	}
}
