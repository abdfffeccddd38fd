package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

func failCall(context.Context) error { return errBoom }
func okCall(context.Context) error   { return nil }

func tripBreaker(t *testing.T, b *Breaker) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < breakerMinRequests; i++ {
		if err := b.do(ctx, failCall); !errors.Is(err, errBoom) {
			t.Fatalf("Do #%d = %v, want errBoom", i, err)
		}
	}
	if got := b.currentState(); got != BreakerOpen {
		t.Fatalf("state after failures = %v, want open", got)
	}
}

func TestBreakerTripsOnErrorRate(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(clk.Now)
	tripBreaker(t, b)
	if got := b.tripCount(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}
	// Open: fails fast without running the call.
	called := false
	err := b.do(context.Background(), func(context.Context) error { called = true; return nil })
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open Do = %v, want ErrBreakerOpen", err)
	}
	if called {
		t.Fatal("open breaker still invoked the call")
	}
}

func TestBreakerBelowMinRequestsNeverTrips(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(clk.Now)
	for i := 0; i < breakerMinRequests-1; i++ {
		_ = b.do(context.Background(), failCall)
	}
	if got := b.currentState(); got != BreakerClosed {
		t.Fatalf("state with %d < breakerMinRequests failures = %v, want closed", breakerMinRequests-1, got)
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(clk.Now)
	tripBreaker(t, b)
	clk.Advance(breakerCooldown)
	if got := b.currentState(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	if err := b.do(context.Background(), okCall); err != nil {
		t.Fatalf("probe = %v", err)
	}
	if got := b.currentState(); got != BreakerClosed {
		t.Fatalf("state after good probe = %v, want closed", got)
	}
	// The window was reset: fresh failures stay below breakerMinRequests.
	for i := 0; i < breakerMinRequests-1; i++ {
		_ = b.do(context.Background(), failCall)
	}
	if got := b.currentState(); got != BreakerClosed {
		t.Fatalf("state after reset + %d failures = %v, want closed", breakerMinRequests-1, got)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(clk.Now)
	tripBreaker(t, b)
	clk.Advance(breakerCooldown)
	if err := b.do(context.Background(), failCall); !errors.Is(err, errBoom) {
		t.Fatalf("probe = %v, want errBoom", err)
	}
	if got := b.currentState(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if got := b.tripCount(); got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
	if err := b.do(context.Background(), okCall); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Do after re-open = %v, want ErrBreakerOpen", err)
	}
}

func TestBreakerHalfOpenAdmitsSingleProbe(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(clk.Now)
	tripBreaker(t, b)
	clk.Advance(breakerCooldown)
	err := b.do(context.Background(), func(ctx context.Context) error {
		// While the probe is in flight, a second call must be rejected.
		if err := b.do(ctx, okCall); !errors.Is(err, ErrBreakerOpen) {
			t.Errorf("concurrent call during probe = %v, want ErrBreakerOpen", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.currentState(); got != BreakerClosed {
		t.Fatalf("state after probe = %v, want closed", got)
	}
}

// TestBreakerCountsSlowCallsAsFailures fills the window one call short
// of breakerMinRequests with failures one short of the trip rate, so the
// last call trips the breaker only if its slowness counts as a failure.
func TestBreakerCountsSlowCallsAsFailures(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(clk.Now)
	const fails = breakerMinRequests/2 - 1
	for i := 0; i < breakerMinRequests-1; i++ {
		call := okCall
		if i < fails {
			call = failCall
		}
		_ = b.do(context.Background(), call)
	}
	slow := func(context.Context) error {
		clk.Advance(breakerLatency + time.Millisecond)
		return nil
	}
	if err := b.do(context.Background(), slow); err != nil {
		t.Fatal(err)
	}
	if got := b.currentState(); got != BreakerOpen {
		t.Fatalf("state after %d failures and a slow call = %v, want open", fails, got)
	}
}

func TestBreakerIgnoresClientCancellation(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(clk.Now)
	walkedAway := func(context.Context) error { return context.Canceled }
	for i := 0; i < 2*breakerMinRequests; i++ {
		_ = b.do(context.Background(), walkedAway)
	}
	if got := b.currentState(); got != BreakerClosed {
		t.Fatalf("state after cancellations = %v, want closed", got)
	}
	if got := b.tripCount(); got != 0 {
		t.Fatalf("trips = %d, want 0", got)
	}
}

func TestBreakerRetryAfter(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(clk.Now)
	if got := b.retryAfter(); got != retryAfterSecs {
		t.Fatalf("closed retryAfter = %d, want %d", got, retryAfterSecs)
	}
	tripBreaker(t, b)
	if got := b.retryAfter(); got != 6 {
		// Full 5s cooldown remaining, rounded up to whole seconds.
		t.Fatalf("retryAfter at trip = %d, want 6", got)
	}
	clk.Advance(breakerCooldown - 500*time.Millisecond)
	if got := b.retryAfter(); got != 1 {
		t.Fatalf("retryAfter with 500ms left = %d, want 1", got)
	}
	clk.Advance(time.Second)
	if got := b.retryAfter(); got != retryAfterSecs {
		t.Fatalf("retryAfter past cooldown = %d, want %d", got, retryAfterSecs)
	}
}

func TestBreakerWindowAgesOutOldFailures(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(clk.Now)
	// Failures one short of the minimum now, then the whole window
	// elapses before more traffic: the old failures age out and cannot
	// combine with later ones to trip.
	for i := 0; i < breakerMinRequests-1; i++ {
		_ = b.do(context.Background(), failCall)
	}
	clk.Advance(breakerWindow + time.Second)
	_ = b.do(context.Background(), failCall)
	if got := b.currentState(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (old failures aged out)", got)
	}
}
