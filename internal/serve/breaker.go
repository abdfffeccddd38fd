package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"crowdscope/internal/apiserver"
)

// Circuit-breaker defaults (documented in DESIGN.md §10).
const (
	// DefaultBreakerWindow is the rolling window over which error rates
	// are measured.
	DefaultBreakerWindow = 10 * time.Second
	// DefaultBreakerBuckets is how many sub-buckets the window rotates
	// through; older buckets age out one bucket-width at a time.
	DefaultBreakerBuckets = 10
	// DefaultBreakerMinRequests is the minimum number of calls in the
	// window before the error rate is meaningful enough to trip on.
	DefaultBreakerMinRequests = 10
	// DefaultBreakerErrorRate is the failure fraction (errors plus
	// over-latency calls) at which the breaker trips open.
	DefaultBreakerErrorRate = 0.5
	// DefaultBreakerLatency is the per-call latency above which an
	// otherwise successful call counts as a failure.
	DefaultBreakerLatency = time.Second
	// DefaultBreakerCooldown is how long an open breaker fails fast
	// before half-opening a single probe.
	DefaultBreakerCooldown = 5 * time.Second
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

// BreakerConfig tunes the rolling window and trip thresholds. The Clock
// is mandatory: all breaker time flows through it, which is what makes
// trip/half-open/close transitions deterministic under a fake clock.
type BreakerConfig struct {
	// Window is the rolling measurement window; Buckets sub-buckets
	// rotate through it.
	Window  time.Duration
	Buckets int
	// MinRequests gates tripping: fewer calls than this in the window
	// never trip, however bad the rate.
	MinRequests int
	// ErrorRate in (0,1] is the failure fraction that trips the breaker.
	ErrorRate float64
	// Latency is the slow-call threshold; calls slower than this count
	// as failures even when they succeed.
	Latency time.Duration
	// Cooldown is the fail-fast period before a half-open probe.
	Cooldown time.Duration
	// Clock supplies all breaker time (see apiserver.Clock: the
	// repository's sanctioned determinism escape hatch).
	Clock apiserver.Clock
}

func (c *BreakerConfig) fill() {
	if c.Window <= 0 {
		c.Window = DefaultBreakerWindow
	}
	if c.Buckets <= 0 {
		c.Buckets = DefaultBreakerBuckets
	}
	if c.MinRequests <= 0 {
		c.MinRequests = DefaultBreakerMinRequests
	}
	if c.ErrorRate <= 0 {
		c.ErrorRate = DefaultBreakerErrorRate
	}
	if c.Latency <= 0 {
		c.Latency = DefaultBreakerLatency
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultBreakerCooldown
	}
}

type breakerBucket struct {
	total    int
	failures int
}

// Breaker is a rolling-window circuit breaker. Closed, it records every
// call outcome into time-rotated buckets and trips open when the
// window's failure fraction crosses ErrorRate (with at least
// MinRequests calls observed). Open, it fails fast until Cooldown
// elapses, then half-opens exactly one probe; the probe's outcome
// decides between closing (window reset) and re-opening (fresh
// cooldown).
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	buckets  []breakerBucket
	cur      int
	curStart time.Time
	openedAt time.Time
	probing  bool
	trips    int64
}

// newBreaker builds a breaker; cfg.Clock must be set.
func newBreaker(cfg BreakerConfig) *Breaker {
	cfg.fill()
	if cfg.Clock == nil {
		panic("serve: BreakerConfig.Clock is required (wire time.Now in package main)")
	}
	b := &Breaker{
		cfg:      cfg,
		buckets:  make([]breakerBucket, cfg.Buckets),
		curStart: cfg.Clock(),
	}
	return b
}

// do runs fn through the breaker: open states reject with
// ErrBreakerOpen before fn runs, and fn's outcome (error or measured
// latency above the threshold) feeds the rolling window. fn's error is
// returned unchanged so callers can branch on their own sentinel types.
func (b *Breaker) do(ctx context.Context, fn func(context.Context) error) error {
	if err := b.allow(); err != nil {
		return err
	}
	start := b.cfg.Clock()
	err := fn(ctx)
	b.record(start, err)
	return err
}

// currentState reports the breaker state, advancing open → half-open
// when the cooldown has already elapsed.
func (b *Breaker) currentState() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.Cooldown {
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
// rejected call: the remaining cooldown when open, or the default
// otherwise, rounded up to whole seconds for the Retry-After header.
func (b *Breaker) retryAfter() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		rem := b.cfg.Cooldown - b.cfg.Clock().Sub(b.openedAt)
		if rem > 0 {
			return int(rem/time.Second) + 1
		}
	}
	return DefaultRetryAfterSecs
}

func (b *Breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Clock()
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
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
	now := b.cfg.Clock()
	if errors.Is(err, context.Canceled) {
		// The caller walked away; that says nothing about backend health.
		if b.state == BreakerHalfOpen {
			b.probing = false
		}
		return
	}
	failure := err != nil || now.Sub(start) > b.cfg.Latency
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
		if total >= b.cfg.MinRequests && float64(failures) >= b.cfg.ErrorRate*float64(total) {
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
	width := b.cfg.Window / time.Duration(b.cfg.Buckets)
	elapsed := now.Sub(b.curStart)
	if elapsed < width {
		return
	}
	steps := int(elapsed / width)
	if steps >= b.cfg.Buckets {
		b.reset(now)
		return
	}
	for i := 0; i < steps; i++ {
		b.cur = (b.cur + 1) % b.cfg.Buckets
		b.buckets[b.cur] = breakerBucket{}
	}
	b.curStart = b.curStart.Add(time.Duration(steps) * width)
}
