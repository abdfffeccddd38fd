package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// BenchmarkServeSnapshotStats measures end-to-end throughput of a
// degradable route: admission, single-flighted refresh probe, cached
// snapshot projection and JSON encoding.
func BenchmarkServeSnapshotStats(b *testing.B) {
	st := testStore(b, 1)
	srv := New(&StoreBackend{Store: st}, Options{Clock: time.Now})
	if err := srv.Refresh(context.Background()); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/snapshot/stats", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeQuery measures query-route throughput through the
// breaker-guarded source.
func BenchmarkServeQuery(b *testing.B) {
	st := testStore(b, 1)
	srv := New(&StoreBackend{Store: st}, Options{Clock: time.Now})
	h := srv.Handler()
	path := queryURL("SELECT COUNT(*) AS n FROM users")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeShedLatency measures how fast an overloaded server
// turns requests away — the tail of this distribution is what clients
// see during a load spike, so it reports p99 alongside the mean.
func BenchmarkServeShedLatency(b *testing.B) {
	st := testStore(b, 1)
	srv := New(&StoreBackend{Store: st}, Options{Clock: time.Now})
	srv.gate = newGate(1, 1)
	if err := srv.Refresh(context.Background()); err != nil {
		b.Fatal(err)
	}
	// Park one holder in the slot and one waiter in the queue so every
	// benchmarked request takes the shed path.
	if err := srv.gate.acquire(context.Background()); err != nil {
		b.Fatal(err)
	}
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		_ = srv.gate.acquire(waiterCtx)
	}()
	for srv.gate.queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	defer func() {
		cancelWaiter()
		<-waiterDone
		srv.gate.release()
	}()

	h := srv.Handler()
	path := queryURL("SELECT COUNT(*) AS n FROM users")
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		lat[i] = time.Since(start)
		if rec.Code != http.StatusTooManyRequests {
			b.Fatalf("status %d, want 429", rec.Code)
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	if len(lat)*99/100 >= len(lat) {
		p99 = lat[len(lat)-1]
	}
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-shed-ns")
}
