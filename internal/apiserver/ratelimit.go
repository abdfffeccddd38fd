package apiserver

import (
	"sync"
	"time"
)

// Clock abstracts time for rate-limit tests, and is the repository's
// sanctioned shape for time injection: crowdlint's determinism analyzer
// bans direct time.Now reads inside deterministic packages, but a package
// that accepts a Clock (and lets package main wire in time.Now) stays
// replayable — tests substitute a fake and drive it explicitly. See
// internal/lint's TestDeterminismInjectedClockEscapeHatch, which pins
// both halves of that contract.
type Clock func() time.Time

// fixedWindow implements Twitter-style rate limiting: each token may make
// Limit calls per Window; the window resets Window after its first call.
type fixedWindow struct {
	limit  int
	window time.Duration
	clock  Clock

	mu     sync.Mutex
	states map[string]*windowState
}

type windowState struct {
	start time.Time
	count int
}

func newFixedWindow(limit int, window time.Duration, clock Clock) *fixedWindow {
	return &fixedWindow{
		limit:  limit,
		window: window,
		clock:  clock,
		states: map[string]*windowState{},
	}
}

// allow records a call for the token. It returns ok=false and the delay
// until the window resets when the token is exhausted.
func (f *fixedWindow) allow(token string) (ok bool, retryAfter time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clock()
	st := f.states[token]
	if st == nil || now.Sub(st.start) >= f.window {
		st = &windowState{start: now}
		f.states[token] = st
	}
	if st.count >= f.limit {
		return false, st.start.Add(f.window).Sub(now)
	}
	st.count++
	return true, 0
}
