package apiserver

import (
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutable clock for window tests; no real sleeps anywhere.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// TestFixedWindowRollover drives one token through allow/deny/rollover
// transitions with a table of clock advances.
func TestFixedWindowRollover(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	fw := newFixedWindow(3, time.Minute, clk.Now)
	steps := []struct {
		advance   time.Duration
		wantOK    bool
		wantRetry time.Duration
	}{
		{0, true, 0},                                // 1st call opens the window
		{10 * time.Second, true, 0},                 // 2nd
		{10 * time.Second, true, 0},                 // 3rd exhausts the limit
		{10 * time.Second, false, 30 * time.Second}, // denied; 30s left of the window
		{29 * time.Second, false, time.Second},      // still denied at 59s
		{2 * time.Second, true, 0},                  // 61s: rollover, fresh window
		{0, true, 0},
	}
	for i, st := range steps {
		clk.Advance(st.advance)
		ok, retry := fw.allow("tok")
		if ok != st.wantOK {
			t.Fatalf("step %d: allow = %v, want %v", i, ok, st.wantOK)
		}
		if retry != st.wantRetry {
			t.Fatalf("step %d: retryAfter = %v, want %v", i, retry, st.wantRetry)
		}
	}
}

// TestFixedWindowRemainingFreshAndRolledOver: a fresh token has the
// whole limit, an exhausted one none, and the window rolls over once the
// clock passes it.
func TestFixedWindowRemainingFreshAndRolledOver(t *testing.T) {
	clk := &fakeClock{now: time.Unix(100, 0)}
	fw := newFixedWindow(5, time.Minute, clk.Now)
	for i := 0; i < 5; i++ {
		if ok, _ := fw.allow("tok"); !ok {
			t.Fatalf("call %d of a fresh token denied", i+1)
		}
	}
	if ok, retry := fw.allow("tok"); ok || retry != time.Minute {
		t.Fatalf("exhausted token: allow = %v, retry %v, want denied for 1m", ok, retry)
	}
	clk.Advance(time.Minute)
	for i := 0; i < 5; i++ {
		if ok, _ := fw.allow("tok"); !ok {
			t.Fatalf("call %d after rollover denied", i+1)
		}
	}
}

func TestFixedWindowTokensAreIndependent(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	fw := newFixedWindow(1, time.Minute, clk.Now)
	if ok, _ := fw.allow("a"); !ok {
		t.Fatal("first call on a denied")
	}
	if ok, _ := fw.allow("a"); ok {
		t.Fatal("second call on a allowed")
	}
	if ok, _ := fw.allow("b"); !ok {
		t.Fatal("b should have its own window")
	}
}

// TestRetryAfterHeaderValues checks the wire format: the handler rounds
// the remaining window up to whole seconds (int(seconds)+1).
func TestRetryAfterHeaderValues(t *testing.T) {
	w := testWorld(t)
	var username string
	for _, p := range w.Twitter {
		username = p.Username
		break
	}
	if username == "" {
		t.Skip("world has no twitter profiles")
	}
	cases := []struct {
		name       string
		advance    time.Duration
		wantHeader string
	}{
		{"full window left", 0, "31"},
		{"10s elapsed", 10 * time.Second, "21"},
		{"half second granularity", 500 * time.Millisecond, "21"}, // 19.5s -> int()+1 = 20? see below
	}
	// The header is int(retry.Seconds())+1, so 19.5s remaining gives 20.
	cases[2].wantHeader = "20"

	clk := &fakeClock{now: time.Unix(0, 0)}
	_, ts := newServer(t, Options{
		Tokens:        []string{"ra"},
		TwitterLimit:  1,
		TwitterWindow: 30 * time.Second,
		Clock:         clk.Now,
	})
	url := ts.URL + "/twitter/users/show?screen_name=" + urlQuery(username)
	if code := get(t, url, "ra", nil); code != http.StatusOK {
		t.Fatalf("priming call code %d", code)
	}
	for _, tc := range cases {
		clk.Advance(tc.advance)
		code, got := getRetryAfter(t, url, "ra")
		if code != http.StatusTooManyRequests {
			t.Fatalf("%s: code %d, want 429", tc.name, code)
		}
		if got != tc.wantHeader {
			t.Fatalf("%s: Retry-After = %q, want %q", tc.name, got, tc.wantHeader)
		}
		// The advertised wait must be a parseable positive integer the
		// crawler can sleep on.
		if secs, err := strconv.Atoi(got); err != nil || secs <= 0 {
			t.Fatalf("%s: unusable Retry-After %q", tc.name, got)
		}
	}
	// After the window passes, the token works again with no header.
	clk.Advance(time.Minute)
	if code := get(t, url, "ra", nil); code != http.StatusOK {
		t.Fatalf("post-rollover code %d", code)
	}
}

// TestRateLimitStatusTracksWindow observes the window over HTTP: the
// call past the limit answers 429 with the rest of the window in
// Retry-After, and the rollover restores the whole limit.
func TestRateLimitStatusTracksWindow(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	_, ts := newServer(t, Options{
		Tokens:        []string{"st"},
		TwitterLimit:  4,
		TwitterWindow: time.Minute,
		Clock:         clk.Now,
	})
	w := testWorld(t)
	var username string
	for _, p := range w.Twitter {
		username = p.Username
		break
	}
	url := ts.URL + "/twitter/users/show?screen_name=" + urlQuery(username)
	calls := func(n int) {
		for i := 0; i < n; i++ {
			if code := get(t, url, "st", nil); code != http.StatusOK {
				t.Fatalf("call %d: code %d", i+1, code)
			}
		}
	}
	calls(3)
	clk.Advance(20 * time.Second)
	calls(1)
	if code, retry := getRetryAfter(t, url, "st"); code != http.StatusTooManyRequests || retry != "41" {
		t.Fatalf("5th call: code %d, Retry-After %q, want 429 and 41", code, retry)
	}
	clk.Advance(41 * time.Second)
	calls(4)
}
