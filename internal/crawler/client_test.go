package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdscope/internal/apiserver"
)

// TestBackoffRespectsContextCancellation is the regression test for the
// bug where a canceled crawl slept out a full backoff before noticing:
// with an hour-long backoff pending, cancellation must surface almost
// immediately.
func TestBackoffRespectsContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"always failing"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	client, err := NewClient(ts.URL, []string{"tok"})
	if err != nil {
		t.Fatal(err)
	}
	client.BaseBackoff = time.Hour // the old code would sleep this out

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := client.startup(ctx, "s1")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt fail and start backing off
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v, the backoff was slept out", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client still sleeping 10s after cancellation")
	}
}

// TestRetryAfterSleepRespectsContextCancellation covers the other sleep
// site: the every-token-exhausted Retry-After wait.
func TestRetryAfterSleepRespectsContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		http.Error(w, `{"error":"rate limited"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	client, err := NewClient(ts.URL, []string{"only-token"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.startup(ctx, "s1")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client still sleeping out Retry-After after cancellation")
	}
}

// TestCanceledContextFailsFast checks no request is even attempted on a
// dead context.
func TestCanceledContextFailsFast(t *testing.T) {
	_, _, client := harness(t, apiserver.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.startup(ctx, "s1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := client.RaisingStartups(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTruncatedBodyRefetched runs the client against a server that
// truncates half the raising-listing responses and checks the pagination
// still returns the complete listing via re-fetches.
func TestTruncatedBodyRefetched(t *testing.T) {
	w, _, clean := harness(t, apiserver.Options{})
	want, err := clean.RaisingStartups(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	srv := apiserver.New(w, apiserver.Options{
		Tokens: []string{"t1"},
		Faults: &apiserver.FaultConfig{
			// Seed 8 truncates the very first listing page (draw 0.02), so
			// the re-fetch path is exercised even for a one-page listing.
			Seed:    8,
			Default: apiserver.FaultProfile{Truncate: 0.5},
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, []string{"t1"})
	if err != nil {
		t.Fatal(err)
	}
	client.Sleep = func(time.Duration) {}
	client.MaxRetries = 12

	got, err := client.RaisingStartups(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("listing under truncation = %d ids, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("id %d diverges: %s vs %s", i, got[i], want[i])
		}
	}
	if st := client.counters(); st.BodyRetries == 0 {
		t.Error("expected body re-fetches at 50% truncation rate")
	}
	if fs := srv.FaultStats(); fs.Truncates == 0 {
		t.Error("server reports no truncations")
	}
}

// TestRetryAfterFormats covers both wire forms of Retry-After (RFC 9110
// delta-seconds and HTTP-date) against an injected clock: the date form
// must resolve to the exact wait between the client's clock and the
// header's instant, and unusable values (past dates, garbage) fall back
// to the default window.
func TestRetryAfterFormats(t *testing.T) {
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name   string
		header string
		want   time.Duration
	}{
		{"delta seconds", "7", 7 * time.Second},
		{"http date", base.Add(5 * time.Second).Format(http.TimeFormat), 5 * time.Second},
		{"past http date", base.Add(-time.Minute).Format(http.TimeFormat), 2 * time.Second},
		{"garbage", "soon", 2 * time.Second},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) == 1 {
					w.Header().Set("Retry-After", tc.header)
					http.Error(w, `{"error":"rate limited"}`, http.StatusTooManyRequests)
					return
				}
				fmt.Fprint(w, `{"id":"s1"}`)
			}))
			defer ts.Close()
			client, err := NewClient(ts.URL, []string{"only-token"})
			if err != nil {
				t.Fatal(err)
			}
			var slept []time.Duration
			client.Sleep = func(d time.Duration) { slept = append(slept, d) }
			client.Clock = func() time.Time { return base }

			st, err := client.startup(context.Background(), "s1")
			if err != nil {
				t.Fatal(err)
			}
			if st.ID != "s1" {
				t.Fatalf("startup id = %q", st.ID)
			}
			if len(slept) != 1 || slept[0] != tc.want {
				t.Fatalf("slept %v, want exactly [%v]", slept, tc.want)
			}
			if cs := client.counters(); cs.RateLimitHits != 1 || cs.TokenSleeps != 1 {
				t.Fatalf("stats = %+v, want one rate-limit hit and one token sleep", cs)
			}
		})
	}
}

// TestBackoffBudgetCapsTotalSleep: a hostile (or skewed) server that
// keeps demanding hour-long waits must not stall a call forever — the
// cumulative sleep within one call is capped by MaxSleepPerCall and the
// call fails with the typed ErrBackoffBudget.
func TestBackoffBudgetCapsTotalSleep(t *testing.T) {
	t.Run("rate limit waits", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "3600")
			http.Error(w, `{"error":"rate limited"}`, http.StatusTooManyRequests)
		}))
		defer ts.Close()
		client, err := NewClient(ts.URL, []string{"only-token"})
		if err != nil {
			t.Fatal(err)
		}
		client.MaxSleepPerCall = 5 * time.Second
		var total time.Duration
		client.Sleep = func(d time.Duration) { total += d }

		_, err = client.startup(context.Background(), "s1")
		if !errors.Is(err, ErrBackoffBudget) {
			t.Fatalf("err = %v, want ErrBackoffBudget", err)
		}
		if total > 5*time.Second {
			t.Fatalf("slept %v total, budget was 5s", total)
		}
	})
	t.Run("retry backoff", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"always failing"}`, http.StatusInternalServerError)
		}))
		defer ts.Close()
		client, err := NewClient(ts.URL, []string{"tok"})
		if err != nil {
			t.Fatal(err)
		}
		client.MaxRetries = 50
		client.BaseBackoff = time.Second
		client.MaxSleepPerCall = 3 * time.Second
		var total time.Duration
		client.Sleep = func(d time.Duration) { total += d }

		_, err = client.startup(context.Background(), "s1")
		if !errors.Is(err, ErrBackoffBudget) {
			t.Fatalf("err = %v, want ErrBackoffBudget", err)
		}
		if total > 3*time.Second {
			t.Fatalf("slept %v total, budget was 3s", total)
		}
	})
}

// TestParallelRecordsAllErrors: after the first failure no new work is
// dispatched, but every in-flight failure lands in the joined error.
func TestParallelRecordsAllErrors(t *testing.T) {
	items := []string{"a", "b", "c", "d"}
	var barrier sync.WaitGroup
	barrier.Add(len(items))
	err := parallel(context.Background(), len(items), items, func(id string) error {
		barrier.Done()
		barrier.Wait() // all four failures are in flight together
		return fmt.Errorf("boom-%s", id)
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	for _, id := range items {
		if !strings.Contains(err.Error(), "boom-"+id) {
			t.Fatalf("joined error lost failure of %q: %v", id, err)
		}
	}
	var asJoin interface{ Unwrap() []error }
	if !errors.As(err, &asJoin) {
		t.Fatalf("error is not a joined error: %T", err)
	}
	if got := len(asJoin.Unwrap()); got != len(items) {
		t.Fatalf("joined %d errors, want %d", got, len(items))
	}
}
