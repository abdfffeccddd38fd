package serve

import (
	"context"
	"errors"
)

// Admission control (DESIGN.md §10 lists these with the breaker's).
const (
	// maxConcurrent is the number of requests executing at once.
	maxConcurrent = 64
	// queueDepth is how many admitted-but-waiting requests may queue for
	// a slot before new arrivals are shed.
	queueDepth = 128
	// retryAfterSecs is the Retry-After value advertised on shed (429)
	// and fail-fast (503) responses.
	retryAfterSecs = 1
)

// ErrShed reports that the admission queue was full and the request was
// rejected immediately rather than queued unboundedly.
var ErrShed = errors.New("serve: admission queue full")

// gate is the bounded-concurrency admission controller: at most
// cap(slots) requests execute concurrently, at most cap(queue) more wait
// for a slot, and everything beyond that is shed with ErrShed. Waiters
// are deadline-aware: a queued request gives up when its context
// expires, so a stalled backend cannot accumulate abandoned waiters.
type gate struct {
	slots chan struct{}
	queue chan struct{}
}

func newGate(maxConcurrent, queueDepth int) *gate {
	return &gate{
		slots: make(chan struct{}, maxConcurrent),
		queue: make(chan struct{}, queueDepth),
	}
}

// acquire admits the request or reports why it cannot: a full queue
// returns ErrShed immediately, and a context that expires while queued
// returns the context's error. On nil return the caller owns one slot
// and must release it.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case g.queue <- struct{}{}:
	default:
		return ErrShed
	}
	defer func() { <-g.queue }()
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gate) release() { <-g.slots }

// inFlight reports how many requests currently hold execution slots.
func (g *gate) inFlight() int { return len(g.slots) }

// queued reports how many requests are waiting for a slot.
func (g *gate) queued() int { return len(g.queue) }
