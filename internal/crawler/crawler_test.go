package crawler

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/leakcheck"
	"crowdscope/internal/store"
)

var (
	worldOnce sync.Once
	world     *ecosystem.World
)

func testWorld(t *testing.T) *ecosystem.World {
	t.Helper()
	worldOnce.Do(func() {
		w, err := ecosystem.Generate(ecosystem.NewConfig(21, 0.001))
		if err != nil {
			panic(err)
		}
		world = w
	})
	return world
}

// harness spins up a simulated API server over the shared world.
func harness(t *testing.T, opts apiserver.Options) (*ecosystem.World, *apiserver.Server, *Client) {
	t.Helper()
	w := testWorld(t)
	if len(opts.Tokens) == 0 {
		opts.Tokens = []string{"t1", "t2", "t3"}
	}
	srv := apiserver.New(w, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, opts.Tokens)
	if err != nil {
		t.Fatal(err)
	}
	client.Sleep = func(time.Duration) {} // tests never really sleep
	return w, srv, client
}

func TestNewClientRequiresTokens(t *testing.T) {
	if _, err := NewClient("http://x", nil); err == nil {
		t.Fatal("expected error without tokens")
	}
}

func TestFullCrawlCompleteness(t *testing.T) {
	w, _, client := harness(t, apiserver.Options{})
	cr := &Crawler{Client: client, Workers: 8}
	snap, err := cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The follow-graph backbone guarantees total coverage.
	if snap.Stats.StartupsCrawled != len(w.Startups) {
		t.Errorf("crawled %d startups, world has %d", snap.Stats.StartupsCrawled, len(w.Startups))
	}
	if snap.Stats.UsersCrawled != len(w.Users) {
		t.Errorf("crawled %d users, world has %d", snap.Stats.UsersCrawled, len(w.Users))
	}
	// Every startup with a social link got its profile.
	var wantFB, wantTW int
	for _, s := range w.Startups {
		if s.FacebookURL != "" {
			wantFB++
		}
		if s.TwitterURL != "" {
			wantTW++
		}
	}
	if snap.Stats.FacebookProfiles != wantFB {
		t.Errorf("facebook profiles %d, want %d", snap.Stats.FacebookProfiles, wantFB)
	}
	if snap.Stats.TwitterProfiles != wantTW {
		t.Errorf("twitter profiles %d, want %d", snap.Stats.TwitterProfiles, wantTW)
	}
	// The BFS should need only a few rounds given the backbone (seeds ->
	// users -> startups), plus settling rounds.
	if snap.Stats.Rounds < 2 || snap.Stats.Rounds > 10 {
		t.Errorf("rounds = %d", snap.Stats.Rounds)
	}
	// Crawled content matches ground truth for a sample.
	for id, st := range snap.Startups {
		truth := w.StartupByID(id)
		if truth == nil || truth.Name != st.Name {
			t.Fatalf("startup %s diverges from ground truth", id)
		}
		break
	}
}

func TestCrawlCrunchBaseAugmentation(t *testing.T) {
	w, _, client := harness(t, apiserver.Options{})
	cr := &Crawler{Client: client, Workers: 8}
	snap, err := cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Every successful company must be augmented unless its name search
	// was ambiguous (duplicated names are planted on purpose).
	missedSuccessful := 0
	for i, s := range w.Startups {
		if !w.Successful[i] {
			continue
		}
		if _, ok := snap.CrunchBase[s.ID]; !ok {
			missedSuccessful++
		}
	}
	total := snap.Stats.CBByLink + snap.Stats.CBBySearch
	if total == 0 {
		t.Fatal("no CrunchBase augmentations at all")
	}
	if snap.Stats.CBByLink == 0 || snap.Stats.CBBySearch == 0 {
		t.Errorf("both augmentation paths should trigger: link=%d search=%d",
			snap.Stats.CBByLink, snap.Stats.CBBySearch)
	}
	// Ambiguity losses should stay small.
	if missedSuccessful > snap.Stats.CBAmbiguous+total/10 {
		t.Errorf("missed %d successful companies (ambiguous=%d)", missedSuccessful, snap.Stats.CBAmbiguous)
	}
}

func TestCrawlSurvivesFailureInjection(t *testing.T) {
	w, _, client := harness(t, apiserver.Options{Faults: &apiserver.FaultConfig{
		Seed: 7, Default: apiserver.FaultProfile{ServerError: 0.2},
	}})
	// At the default 5 retries a request fails outright with probability
	// 0.2^6; over these few thousand endpoints some seeds would hit one,
	// and this test is about surviving failures, not about the budget.
	client.MaxRetries = 12
	cr := &Crawler{Client: client, Workers: 4}
	snap, err := cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.StartupsCrawled != len(w.Startups) {
		t.Errorf("crawled %d startups under failures, want %d", snap.Stats.StartupsCrawled, len(w.Startups))
	}
	if snap.Stats.Client.Retries == 0 {
		t.Error("expected retries under 20% failure rate")
	}
}

func TestCrawlRotatesTokensUnderRateLimit(t *testing.T) {
	now := time.Unix(0, 0)
	var nowMu sync.Mutex
	clock := func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }
	w, _, client := harness(t, apiserver.Options{
		Tokens:        []string{"t1", "t2", "t3"},
		TwitterLimit:  10,
		TwitterWindow: time.Minute,
		Clock:         clock,
	})
	// Sleeping advances the fake clock, simulating the wait for a window.
	client.Sleep = func(d time.Duration) {
		nowMu.Lock()
		now = now.Add(d)
		nowMu.Unlock()
	}
	cr := &Crawler{Client: client, Workers: 2}
	snap, err := cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wantTW int
	for _, s := range w.Startups {
		if s.TwitterURL != "" {
			wantTW++
		}
	}
	if snap.Stats.TwitterProfiles != wantTW {
		t.Errorf("twitter profiles %d, want %d despite rate limits", snap.Stats.TwitterProfiles, wantTW)
	}
	if wantTW > 30 && snap.Stats.Client.RateLimitHits == 0 {
		t.Error("expected rate-limit hits with tight windows")
	}
}

func TestCrawlContextCancellation(t *testing.T) {
	// Early cancellation is where worker leaks hide: the pool's workers
	// must all join even when ctx dies before the first fetch.
	leakcheck.Check(t)
	_, _, client := harness(t, apiserver.Options{})
	cr := &Crawler{Client: client, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cr.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

// scanAll collects every committed record of a namespace.
func scanAll[T any](t *testing.T, st *store.Store, ns string) []T {
	t.Helper()
	var out []T
	if err := store.ScanAsContext(context.Background(), st, ns, func(rec T) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPersistTagsAndAppendsSnapshots(t *testing.T) {
	w, srv, client := harness(t, apiserver.Options{})
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cr := &Crawler{Client: client, Workers: 8}
	snap, err := cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := Persist(context.Background(), st, snap, 0); err != nil {
		t.Fatal(err)
	}
	// Verify persisted counts.
	startups := scanAll[StartupRecord](t, st, NSStartups)
	if len(startups) != len(snap.Startups) {
		t.Fatalf("persisted %d startups, snapshot has %d", len(startups), len(snap.Startups))
	}
	for _, r := range startups {
		if r.Snapshot != 0 {
			t.Fatalf("snapshot tag = %d", r.Snapshot)
		}
	}
	if users := scanAll[UserRecord](t, st, NSUsers); len(users) != len(snap.Users) {
		t.Fatalf("persisted %d users", len(users))
	}

	// Second snapshot after the world evolves.
	for d := 0; d < 5; d++ {
		w.Evolve()
	}
	srv.Reload()
	snap, err = cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := Persist(context.Background(), st, snap, 1); err != nil {
		t.Fatal(err)
	}
	startups2 := scanAll[StartupRecord](t, st, NSStartups)
	if len(startups2) <= len(startups) {
		t.Fatalf("second snapshot did not append: %d -> %d", len(startups), len(startups2))
	}
	sawTag1 := false
	for _, r := range startups2 {
		if r.Snapshot == 1 {
			sawTag1 = true
			break
		}
	}
	if !sawTag1 {
		t.Fatal("no records tagged with snapshot 1")
	}
}

func TestClientNotFound(t *testing.T) {
	_, _, client := harness(t, apiserver.Options{})
	ctx := context.Background()
	if _, err := client.startup(ctx, "does-not-exist"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
	if _, err := client.user(ctx, "does-not-exist"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
}

func TestDedupe(t *testing.T) {
	got := dedupe([]string{"a", "b", "a", "c", "b"})
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("dedupe = %v", got)
	}
	if got := dedupe(nil); len(got) != 0 {
		t.Fatalf("dedupe(nil) = %v", got)
	}
}
