package serve

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"crowdscope/internal/leakcheck"
)

// chaosStep is one request's observable outcome. Bodies are included:
// byte-identical traces across reruns is the determinism claim.
type chaosStep struct {
	Route string
	Code  int
	Stale string
	Body  string
}

const chaosQuery = "SELECT id, follows FROM users WHERE follows >= 6 ORDER BY follows DESC"

// runChaosScenario drives a server through load → fault storm →
// recovery against a seeded fault schedule, asserting the resilience
// contract at each phase, and returns the full request trace.
func runChaosScenario(t *testing.T, seed int64, rate float64) []chaosStep {
	t.Helper()
	st := testStore(t, 1)
	clk := newFakeClock()
	faulty := NewFaultyBackend(&StoreBackend{Store: st}, FaultConfig{Seed: seed, Rate: rate})
	faulty.SetEnabled(false)
	srv := New(faulty, testOptions(clk))
	h := srv.Handler()
	if err := srv.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A newer artifact lands just as the store starts misbehaving, so
	// the cached snapshot 0 really is the "last good" one.
	putFrozen(t, st, 1)
	faulty.SetEnabled(true)

	var trace []chaosStep
	record := func(route string) chaosStep {
		rec := get(t, h, route)
		step := chaosStep{
			Route: route,
			Code:  rec.Code,
			Stale: rec.Header().Get(HeaderStale),
			Body:  rec.Body.String(),
		}
		trace = append(trace, step)
		return step
	}

	// ---- Fault storm: degradable routes must never 5xx; the query
	// route may fail but only with controlled statuses. ----
	var query5xx int
	for i := 0; i < 40; i++ {
		snap := record("/api/snapshot/companies")
		if snap.Code != http.StatusOK {
			t.Fatalf("iter %d: degradable route returned %d under faults: %s", i, snap.Code, snap.Body)
		}
		q := record(queryURL(chaosQuery))
		switch q.Code {
		case http.StatusOK:
		case http.StatusBadGateway:
			query5xx++
		case http.StatusServiceUnavailable:
			// Breaker open: fail-fast must advertise a retry hint.
			query5xx++
			if q.Body == "" {
				t.Fatalf("iter %d: 503 with empty body", i)
			}
		default:
			t.Fatalf("iter %d: query returned unexpected %d: %s", i, q.Code, q.Body)
		}
	}
	if rate == 1.0 {
		// Every backend call fails: the breaker must have tripped, and
		// once open the expensive 502s stop — the error rate is bounded
		// by the trip threshold, everything after fails fast or degrades.
		if got := srv.breaker.currentState(); got != BreakerOpen {
			t.Fatalf("breaker state under total failure = %v, want open", got)
		}
		if srv.breaker.tripCount() == 0 {
			t.Fatal("breaker never tripped under total failure")
		}
		var slow502 int
		for _, step := range trace {
			if step.Code == http.StatusBadGateway {
				slow502++
			}
		}
		if slow502 > breakerMinRequests {
			t.Fatalf("%d requests reached the failing backend; breaker should cap at %d",
				slow502, breakerMinRequests)
		}
		// And every degraded response served the cached last-good tag.
		for _, step := range trace {
			if step.Route == "/api/snapshot/companies" && step.Stale != "snap-000000" {
				t.Fatalf("degraded response stale marker = %q, want snap-000000", step.Stale)
			}
		}
	}

	// ---- Recovery: faults clear, the cooldown elapses, and the next
	// refresh probe closes the breaker and hot-loads snapshot 1. ----
	faulty.SetEnabled(false)
	clk.Advance(breakerCooldown + time.Second)
	record("/api/snapshot/companies")

	if got := srv.breaker.currentState(); got != BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", got)
	}

	// ---- Bit-identical responses vs. a server that never saw faults. ----
	cleanStore := testStore(t, 2) // same deterministic content: snaps 0 and 1
	cleanSrv := New(&StoreBackend{Store: cleanStore}, testOptions(newFakeClock()))
	if err := cleanSrv.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	cleanH := cleanSrv.Handler()
	for _, route := range []string{
		"/api/snapshot/companies",
		"/api/snapshot/investors",
		"/api/snapshot/stats",
		queryURL(chaosQuery),
	} {
		got := record(route)
		want := get(t, cleanH, route)
		if got.Code != want.Code || got.Body != want.Body.String() {
			t.Fatalf("post-recovery %s diverged from fault-free server:\n got %d %s\nwant %d %s",
				route, got.Code, got.Body, want.Code, want.Body.String())
		}
		if got.Stale != "" {
			t.Fatalf("post-recovery %s still marked stale: %q", route, got.Stale)
		}
	}
	return trace
}

// TestChaosServing is the acceptance scenario at three (seed, rate)
// combinations, each run twice to prove the whole trace — status codes,
// staleness markers and bodies — is deterministic at a fixed seed.
func TestChaosServing(t *testing.T) {
	combos := []struct {
		seed int64
		rate float64
	}{
		{seed: 7, rate: 0.3},
		{seed: 101, rate: 0.6},
		{seed: 9001, rate: 1.0},
	}
	for _, c := range combos {
		c := c
		t.Run(fmt.Sprintf("seed=%d_rate=%v", c.seed, c.rate), func(t *testing.T) {
			leakcheck.Check(t)
			first := runChaosScenario(t, c.seed, c.rate)
			second := runChaosScenario(t, c.seed, c.rate)
			if !reflect.DeepEqual(first, second) {
				for i := range first {
					if i < len(second) && !reflect.DeepEqual(first[i], second[i]) {
						t.Fatalf("trace diverged at step %d:\n run1: %+v\n run2: %+v", i, first[i], second[i])
					}
				}
				t.Fatalf("trace lengths differ: %d vs %d", len(first), len(second))
			}
		})
	}
}

// TestChaosAdmissionBoundAndShed saturates the gate with a parked
// backend: with 1 executing slot and 1 queue seat, a burst of 6 yields
// exactly 2 successes and 4 shed 429s, and the backend never sees more
// than one concurrent scan.
func TestChaosAdmissionBoundAndShed(t *testing.T) {
	leakcheck.Check(t)
	bb := &blockingBackend{entered: make(chan struct{}, 16), release: make(chan struct{})}
	gb := &gaugeBackend{Backend: bb}
	srv := New(gb, testOptions(newFakeClock()))
	srv.gate = newGate(1, 1)
	h := srv.Handler()

	codes := make(chan int, 2)
	go func() { codes <- get(t, h, queryURL(chaosQuery)).Code }()
	<-bb.entered // slot holder parked inside its scan
	go func() { codes <- get(t, h, queryURL(chaosQuery)).Code }()
	waitFor(t, func() bool { return srv.gate.queued() == 1 })

	for i := 0; i < 4; i++ {
		rec := get(t, h, queryURL(chaosQuery))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("burst request %d = %d, want 429", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("burst request %d shed without Retry-After", i)
		}
	}
	if got := srv.shed.Load(); got != 4 {
		t.Fatalf("shed = %d, want 4", got)
	}

	close(bb.release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("admitted request %d finished with %d", i, code)
		}
	}
	if got := gb.peak(); got > 1 {
		t.Fatalf("backend saw %d concurrent scans, bound is 1", got)
	}
}
