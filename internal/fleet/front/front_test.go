package front

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/leakcheck"
	"crowdscope/internal/serve"
	"crowdscope/internal/store"
)

// frozenDir builds (once) a store directory with a committed frozen
// snapshot of a small generated world — the artifact the replicas serve.
var (
	frozenOnce sync.Once
	frozenPath string
)

func frozenStoreDir(t *testing.T) string {
	t.Helper()
	frozenOnce.Do(func() {
		w, err := ecosystem.Generate(ecosystem.NewConfig(21, 0.001))
		if err != nil {
			panic(err)
		}
		snap := &crawler.Snapshot{
			Startups:   map[string]*ecosystem.Startup{},
			Users:      map[string]*ecosystem.User{},
			CrunchBase: map[string]*ecosystem.CrunchBaseProfile{},
			Facebook:   map[string]*ecosystem.FacebookProfile{},
			Twitter:    map[string]*ecosystem.TwitterProfile{},
		}
		for _, s := range w.Startups {
			snap.Startups[s.ID] = s
		}
		for _, u := range w.Users {
			snap.Users[u.ID] = u
		}
		dir, err := os.MkdirTemp("", "front-frozen-*")
		if err != nil {
			panic(err)
		}
		st, err := store.Open(dir)
		if err != nil {
			panic(err)
		}
		ctx := context.Background()
		if err := crawler.Persist(ctx, st, snap, 0); err != nil {
			panic(err)
		}
		if _, err := core.BuildFrozen(ctx, st, 0); err != nil {
			panic(err)
		}
		frozenPath = dir
	})
	return frozenPath
}

// chaosReplica wraps a replica's handler with two failure injectors:
// dead drops every connection without a byte of response, and killNext
// kills the connection mid-response exactly once — the "replica dies
// mid-request" scenario the failover contract is about.
type chaosReplica struct {
	inner    http.Handler
	dead     atomic.Bool
	killNext atomic.Bool
}

func (c *chaosReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if c.killNext.CompareAndSwap(true, false) {
		// Promise a body, deliver a fragment, cut the connection: the
		// front's buffered read sees an unexpected EOF, never the client.
		w.Header().Set("Content-Length", "1048576")
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write([]byte(`{"partial":`)); err == nil {
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
		}
		panic(http.ErrAbortHandler)
	}
	c.inner.ServeHTTP(w, r)
}

// replicaSet builds n serving replicas over read-only handles of the
// shared frozen store, each wrapped in a chaos injector.
func replicaSet(t *testing.T, n int) (*Front, []*chaosReplica) {
	t.Helper()
	dir := frozenStoreDir(t)
	targets := make([]string, n)
	chaos := make([]*chaosReplica, n)
	for i := 0; i < n; i++ {
		st, err := store.OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.New(&serve.StoreBackend{Store: st}, serve.Options{
			Clock:     func() time.Time { return time.Unix(1_700_000_000, 0) },
			ReplicaID: "r" + string(rune('1'+i)),
		})
		if err := srv.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		chaos[i] = &chaosReplica{inner: srv.Handler()}
		ts := httptest.NewServer(chaos[i])
		t.Cleanup(ts.Close)
		targets[i] = ts.URL
	}
	f, err := New(targets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f, chaos
}

// get issues one request through the front and returns the recorder.
func get(f *Front, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestFrontFailoverMidRequestKillZero5xx is the front's headline test:
// a replica dies mid-request (partial body, cut connection) and later
// stays dead, and as long as the other replica is healthy the front
// never surfaces a 5xx — the read retries on the survivor.
func TestFrontFailoverMidRequestKillZero5xx(t *testing.T) {
	leakcheck.Check(t)
	f, chaos := replicaSet(t, 2)

	// Warm-up: round-robin spreads 200s across both replicas.
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		rec := get(f, "/api/snapshot/stats")
		if rec.Code != http.StatusOK {
			t.Fatalf("warmup request %d: %d", i, rec.Code)
		}
		seen[rec.Header().Get(serve.HeaderReplica)]++
	}
	if len(seen) != 2 || seen["r1"] == 0 || seen["r2"] == 0 {
		t.Fatalf("round robin did not reach both replicas: %v", seen)
	}

	// Kill r1 mid-request: some upcoming request hits the injector, and
	// every single response must still be a 200 served by r2's retry.
	chaos[0].killNext.Store(true)
	for i := 0; i < 10; i++ {
		if rec := get(f, "/api/snapshot/stats"); rec.Code != http.StatusOK {
			t.Fatalf("request %d after mid-request kill: %d (%s)", i, rec.Code, rec.Body)
		}
	}
	if f.Retries() == 0 {
		t.Fatal("the mid-request kill was never retried (injector not hit?)")
	}
	if f.Ejections() == 0 || healthyCount(f) != 1 {
		t.Fatalf("dead replica still in rotation: ejections=%d healthy=%d", f.Ejections(), healthyCount(f))
	}

	// r1 now stays dead; the survivor carries all reads, still zero 5xx.
	chaos[0].dead.Store(true)
	for i := 0; i < 10; i++ {
		rec := get(f, "/api/snapshot/stats")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d with one dead replica: %d", i, rec.Code)
		}
		if got := rec.Header().Get(serve.HeaderReplica); got != "r2" {
			t.Fatalf("served by %q, want the survivor r2", got)
		}
	}

	// Recovery: the probe reinstates r1 and traffic spreads again.
	chaos[0].dead.Store(false)
	f.checkNow(context.Background())
	if healthyCount(f) != 2 {
		t.Fatalf("healthy after recovery = %d, want 2", healthyCount(f))
	}
	seen = map[string]int{}
	for i := 0; i < 4; i++ {
		rec := get(f, "/api/snapshot/stats")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d after recovery: %d", i, rec.Code)
		}
		seen[rec.Header().Get(serve.HeaderReplica)]++
	}
	if seen["r1"] == 0 {
		t.Fatalf("reinstated replica got no traffic: %v", seen)
	}
}

func TestFrontAllReplicasDown503(t *testing.T) {
	leakcheck.Check(t)
	f, chaos := replicaSet(t, 2)
	chaos[0].dead.Store(true)
	chaos[1].dead.Store(true)
	rec := get(f, "/api/snapshot/stats")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead front returned %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Both back up: the next request already succeeds (the last-resort
	// pass retries ejected replicas even before a probe runs).
	chaos[0].dead.Store(false)
	chaos[1].dead.Store(false)
	if rec := get(f, "/api/snapshot/stats"); rec.Code != http.StatusOK {
		t.Fatalf("recovered front returned %d", rec.Code)
	}
}

// TestFrontRunLoopEjectsAndReinstates exercises the background probe
// loop end to end: a dying replica leaves rotation without any client
// traffic, and returns once healthy again.
func TestFrontRunLoopEjectsAndReinstates(t *testing.T) {
	leakcheck.Check(t)
	f, chaos := replicaSet(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()

	chaos[1].dead.Store(true)
	waitFor(t, func() bool { return healthyCount(f) == 1 })
	chaos[1].dead.Store(false)
	waitFor(t, func() bool { return healthyCount(f) == 2 })

	cancel()
	<-done
}

// healthyCount reports replicas currently in rotation.
func healthyCount(f *Front) int {
	n := 0
	for _, r := range f.replicas {
		if r.healthy.Load() {
			n++
		}
	}
	return n
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFrontOversizedResponseIs502: a body over the front's bound is a
// 502 that names the bound, never a 200 cut short under the replica's
// Content-Length. The replica answered, so it stays in rotation, and
// every replica would send the same body, so there is no retry.
func TestFrontOversizedResponseIs502(t *testing.T) {
	leakcheck.Check(t)
	var hits atomic.Int64
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(strings.Repeat("x", 100)))
	}))
	t.Cleanup(big.Close)
	f, err := New([]string{big.URL, big.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.maxBody = 10
	rec := get(f, "/api/snapshot/stats")
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "exceeds 10 bytes") {
		t.Fatalf("oversized response: %d %q, want 502 naming the 10-byte bound", rec.Code, rec.Body)
	}
	if hits.Load() != 1 || f.Retries() != 0 || f.Ejections() != 0 {
		t.Fatalf("replica hits %d, retries %d, ejections %d; want 1, 0, 0", hits.Load(), f.Retries(), f.Ejections())
	}
}

func TestFrontRejectsNonIdempotentMethods(t *testing.T) {
	leakcheck.Check(t)
	f, _ := replicaSet(t, 1)
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST through front: %d, want 405", rec.Code)
	}
}

// TestFrontStatuszCarriesReplicaID checks the serve-side registration:
// /statusz through the front names the replica that answered.
func TestFrontStatuszCarriesReplicaID(t *testing.T) {
	leakcheck.Check(t)
	f, _ := replicaSet(t, 2)
	rec := get(f, "/statusz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz through front: %d", rec.Code)
	}
	var st serve.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Replica == "" || st.Replica != rec.Header().Get(serve.HeaderReplica) {
		t.Fatalf("statusz replica %q, header %q", st.Replica, rec.Header().Get(serve.HeaderReplica))
	}
}
