package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/store"
)

// Circuit-breaker thresholds (DESIGN.md §10).
const (
	// breakerWindow is the rolling window over which error rates are
	// measured.
	breakerWindow = 10 * time.Second
	// breakerBuckets is how many sub-buckets the window rotates through;
	// older buckets age out one bucket-width at a time.
	breakerBuckets = 10
	// breakerMinRequests is the minimum number of calls in the window
	// before the error rate is meaningful enough to trip on.
	breakerMinRequests = 10
	// breakerErrorRate is the failure fraction (errors plus over-latency
	// calls) at which the breaker trips open.
	breakerErrorRate = 0.5
	// breakerLatency is the per-call latency above which an otherwise
	// successful call counts as a failure.
	breakerLatency = time.Second
	// breakerCooldown is how long an open breaker fails fast before
	// half-opening a single probe.
	breakerCooldown = 5 * time.Second
)

// ErrBreakerOpen reports a call rejected without touching the backend
// because the breaker is open (or a half-open probe is already in
// flight).
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// BreakerState is the breaker's position in its trip cycle.
type BreakerState int

const (
	// BreakerClosed passes calls through while tracking outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits one probe; its outcome closes or re-opens.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

type breakerBucket struct {
	total    int
	failures int
}

// Breaker is a rolling-window circuit breaker. Closed, it records every
// call outcome into time-rotated buckets and trips open when the
// window's failure fraction crosses breakerErrorRate (with at least
// breakerMinRequests calls observed). Open, it fails fast until
// breakerCooldown elapses, then half-opens exactly one probe; the
// probe's outcome decides between closing (window reset) and re-opening
// (fresh cooldown). All breaker time flows through its clock, which is
// what makes the transitions deterministic under a fake one.
type Breaker struct {
	clock apiserver.Clock

	mu       sync.Mutex
	state    BreakerState
	buckets  []breakerBucket
	cur      int
	curStart time.Time
	openedAt time.Time
	probing  bool
	trips    int64
}

func newBreaker(clock apiserver.Clock) *Breaker {
	return &Breaker{
		clock:    clock,
		buckets:  make([]breakerBucket, breakerBuckets),
		curStart: clock(),
	}
}

// do runs fn through the breaker: open states reject with
// ErrBreakerOpen before fn runs, and fn's outcome (error or measured
// latency above the threshold) feeds the rolling window. fn's error is
// returned unchanged so callers can branch on their own sentinel types.
func (b *Breaker) do(ctx context.Context, fn func(context.Context) error) error {
	if err := b.allow(); err != nil {
		return err
	}
	start := b.clock()
	err := fn(ctx)
	b.record(start, err)
	return err
}

// currentState reports the breaker state, advancing open → half-open
// when the cooldown has already elapsed.
func (b *Breaker) currentState() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.clock().Sub(b.openedAt) >= breakerCooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// tripCount reports how many times the breaker has opened.
func (b *Breaker) tripCount() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// retryAfter reports how long callers should wait before retrying a
// rejected call: the remaining cooldown when open, or retryAfterSecs
// otherwise, rounded up to whole seconds for the Retry-After header.
func (b *Breaker) retryAfter() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		rem := breakerCooldown - b.clock().Sub(b.openedAt)
		if rem > 0 {
			return int(rem/time.Second) + 1
		}
	}
	return retryAfterSecs
}

func (b *Breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.clock()
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) < breakerCooldown {
			return ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		b.probing = false
		fallthrough
	case BreakerHalfOpen:
		if b.probing {
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
	b.advance(now)
	return nil
}

func (b *Breaker) record(start time.Time, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.clock()
	if errors.Is(err, context.Canceled) || errors.Is(err, store.ErrNotExist) {
		// The caller walked away, or named something the store does not
		// hold; neither says anything about backend health. (A
		// statement's own errors, query.ErrBadStatement, arise after its
		// read and never reach the breaker.)
		if b.state == BreakerHalfOpen {
			b.probing = false
		}
		return
	}
	failure := err != nil || now.Sub(start) > breakerLatency
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if failure {
			b.trip(now)
		} else {
			b.state = BreakerClosed
			b.reset(now)
		}
	case BreakerClosed:
		b.advance(now)
		b.buckets[b.cur].total++
		if failure {
			b.buckets[b.cur].failures++
		}
		total, failures := 0, 0
		for _, bk := range b.buckets {
			total += bk.total
			failures += bk.failures
		}
		if total >= breakerMinRequests && float64(failures) >= breakerErrorRate*float64(total) {
			b.trip(now)
		}
	}
	// BreakerOpen: a straggler that started before the trip; its outcome
	// is already accounted for by the window that tripped.
}

func (b *Breaker) trip(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.trips++
}

func (b *Breaker) reset(now time.Time) {
	for i := range b.buckets {
		b.buckets[i] = breakerBucket{}
	}
	b.cur = 0
	b.curStart = now
}

// advance rotates the bucket ring forward to cover now, zeroing buckets
// that age out of the window.
func (b *Breaker) advance(now time.Time) {
	const width = breakerWindow / breakerBuckets
	elapsed := now.Sub(b.curStart)
	if elapsed < width {
		return
	}
	steps := int(elapsed / width)
	if steps >= breakerBuckets {
		b.reset(now)
		return
	}
	for i := 0; i < steps; i++ {
		b.cur = (b.cur + 1) % breakerBuckets
		b.buckets[b.cur] = breakerBucket{}
	}
	b.curStart = b.curStart.Add(time.Duration(steps) * width)
}
