package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

func newTestBreaker(clk *fakeClock) *Breaker {
	return newBreaker(BreakerConfig{
		Window:      10 * time.Second,
		Buckets:     10,
		MinRequests: 4,
		ErrorRate:   0.5,
		Latency:     100 * time.Millisecond,
		Cooldown:    2 * time.Second,
		Clock:       clk.Now,
	})
}

func failCall(context.Context) error { return errBoom }
func okCall(context.Context) error   { return nil }

func tripBreaker(t *testing.T, b *Breaker) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 4; i++ {
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
	b := newTestBreaker(clk)
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
	b := newTestBreaker(clk)
	for i := 0; i < 3; i++ {
		_ = b.do(context.Background(), failCall)
	}
	if got := b.currentState(); got != BreakerClosed {
		t.Fatalf("state with 3 < MinRequests failures = %v, want closed", got)
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	tripBreaker(t, b)
	clk.Advance(2 * time.Second)
	if got := b.currentState(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	if err := b.do(context.Background(), okCall); err != nil {
		t.Fatalf("probe = %v", err)
	}
	if got := b.currentState(); got != BreakerClosed {
		t.Fatalf("state after good probe = %v, want closed", got)
	}
	// The window was reset: three fresh failures stay below MinRequests.
	for i := 0; i < 3; i++ {
		_ = b.do(context.Background(), failCall)
	}
	if got := b.currentState(); got != BreakerClosed {
		t.Fatalf("state after reset + 3 failures = %v, want closed", got)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	tripBreaker(t, b)
	clk.Advance(2 * time.Second)
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
	b := newTestBreaker(clk)
	tripBreaker(t, b)
	clk.Advance(2 * time.Second)
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

func TestBreakerCountsSlowCallsAsFailures(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	slow := func(context.Context) error {
		clk.Advance(200 * time.Millisecond) // over the 100ms latency threshold
		return nil
	}
	for i := 0; i < 4; i++ {
		if err := b.do(context.Background(), slow); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.currentState(); got != BreakerOpen {
		t.Fatalf("state after 4 slow calls = %v, want open", got)
	}
}

func TestBreakerIgnoresClientCancellation(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	walkedAway := func(context.Context) error { return context.Canceled }
	for i := 0; i < 8; i++ {
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
	b := newTestBreaker(clk)
	if got := b.retryAfter(); got != DefaultRetryAfterSecs {
		t.Fatalf("closed retryAfter = %d, want default %d", got, DefaultRetryAfterSecs)
	}
	tripBreaker(t, b)
	if got := b.retryAfter(); got != 3 {
		// Full 2s cooldown remaining, rounded up to whole seconds.
		t.Fatalf("retryAfter at trip = %d, want 3", got)
	}
	clk.Advance(1500 * time.Millisecond)
	if got := b.retryAfter(); got != 1 {
		t.Fatalf("retryAfter with 500ms left = %d, want 1", got)
	}
	clk.Advance(time.Second)
	if got := b.retryAfter(); got != DefaultRetryAfterSecs {
		t.Fatalf("retryAfter past cooldown = %d, want default", got)
	}
}

func TestBreakerWindowAgesOutOldFailures(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk)
	// Three failures now, then the whole window elapses before more
	// traffic: the old failures age out and cannot combine with later
	// ones to trip.
	for i := 0; i < 3; i++ {
		_ = b.do(context.Background(), failCall)
	}
	clk.Advance(11 * time.Second)
	_ = b.do(context.Background(), failCall)
	if got := b.currentState(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (old failures aged out)", got)
	}
}
