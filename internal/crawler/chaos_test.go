package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/leakcheck"
	"crowdscope/internal/store"
)

// canonical serializes the data a crawl collected (not its operational
// stats, which legitimately differ between a clean run and a faulted,
// resumed one). encoding/json writes map keys sorted, so equal contents
// give equal bytes.
func canonical(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Startups   map[string]*ecosystem.Startup
		Users      map[string]*ecosystem.User
		CrunchBase map[string]*ecosystem.CrunchBaseProfile
		Facebook   map[string]*ecosystem.FacebookProfile
		Twitter    map[string]*ecosystem.TwitterProfile
	}{snap.Startups, snap.Users, snap.CrunchBase, snap.Facebook, snap.Twitter})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// killSwitch is a RoundTripper that simulates a process crash: after
// limit requests it cancels the crawl's context and fails every further
// request.
type killSwitch struct {
	n      atomic.Int64
	limit  int64
	cancel context.CancelFunc
}

var errKilled = errors.New("chaos: process killed")

func (k *killSwitch) RoundTrip(req *http.Request) (*http.Response, error) {
	if k.n.Add(1) > k.limit {
		k.cancel()
		return nil, errKilled
	}
	return http.DefaultTransport.RoundTrip(req)
}

// referenceCrawl runs one fault-free crawl of the shared world and
// returns its canonical bytes.
func referenceCrawl(t *testing.T) []byte {
	t.Helper()
	// The chaos runs re-fetch augmentation batches after kills, so give
	// the simulated Twitter window real-clock headroom everywhere; the
	// injected 429 bursts still exercise the rate-limit recovery path.
	_, _, client := harness(t, apiserver.Options{TwitterLimit: 1 << 30})
	cr := &Crawler{Client: client, Workers: 8}
	snap, err := cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return canonical(t, snap)
}

// TestChaosCrawlKillResumeBitIdentical is the headline chaos suite: at
// several (seed, fault-rate) combos the crawl runs against a server
// injecting 5xx errors, 429 bursts, slow responses, truncated bodies and
// connection resets; it is repeatedly killed mid-run and resumed from its
// checkpoints; and the final snapshot must be bit-identical to a
// fault-free crawl of the same world.
func TestChaosCrawlKillResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not short")
	}
	leakcheck.Check(t)
	ref := referenceCrawl(t)
	w := testWorld(t)

	cases := []struct {
		name   string
		faults apiserver.FaultConfig
		killAt int64 // base request budget per attempt
	}{
		{
			name: "light mixed faults",
			faults: apiserver.FaultConfig{
				Seed: 1,
				Default: apiserver.FaultProfile{
					ServerError: 0.03, RateLimit: 0.01, Slow: 0.005, Truncate: 0.02, Reset: 0.02,
				},
				SlowDelay: time.Millisecond,
			},
			killAt: 500,
		},
		{
			name: "heavy 5xx and resets",
			faults: apiserver.FaultConfig{
				Seed: 7,
				Default: apiserver.FaultProfile{
					ServerError: 0.08, Reset: 0.05,
				},
			},
			killAt: 400,
		},
		{
			name: "rate-limit bursts and truncation",
			faults: apiserver.FaultConfig{
				Seed: 99,
				Default: apiserver.FaultProfile{
					RateLimit: 0.04, Truncate: 0.06,
				},
				BurstLen: 3,
			},
			killAt: 600,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			faults := tc.faults
			srv := apiserver.New(w, apiserver.Options{
				Tokens:       []string{"t1", "t2", "t3"},
				TwitterLimit: 1 << 30,
				Faults:       &faults,
			})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			dir := t.TempDir()

			var snap *Snapshot
			kills := 0
			const maxAttempts = 25
			for attempt := 0; ; attempt++ {
				if attempt >= maxAttempts {
					t.Fatalf("crawl did not finish after %d attempts (%d kills)", attempt, kills)
				}
				// Every attempt simulates a fresh process: new client, new
				// store handle over the same directory.
				st, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				client, err := NewClient(ts.URL, []string{"t1", "t2", "t3"})
				if err != nil {
					t.Fatal(err)
				}
				client.Sleep = func(time.Duration) {}
				client.MaxRetries = 10
				ctx, cancel := context.WithCancel(context.Background())
				ks := &killSwitch{cancel: cancel}
				// The budget grows so a round larger than the initial
				// budget still completes eventually; late attempts run
				// unrestricted.
				ks.limit = tc.killAt + int64(attempt)*tc.killAt
				if attempt >= 8 {
					ks.limit = 1 << 60
				}
				client.HTTP = &http.Client{Transport: ks}

				cr := &Crawler{
					Client:  client,
					Workers: 4,
					Checkpoint: &CheckpointConfig{
						Store:     st,
						Namespace: "checkpoint/crawl",
						Resume:    attempt > 0,
					},
				}
				snap, err = cr.Run(ctx)
				cancel()
				if err == nil {
					if attempt > 0 && !snap.Stats.Resumed {
						t.Fatal("finishing attempt did not resume from a checkpoint")
					}
					break
				}
				kills++
			}
			if kills == 0 {
				t.Fatal("the crawl was never killed; lower the kill budget")
			}
			if got := canonical(t, snap); !bytes.Equal(got, ref) {
				t.Fatalf("killed+resumed snapshot diverges from fault-free crawl: %d vs %d canonical bytes",
					len(got), len(ref))
			}
			if srv.FaultStats().Total() == 0 {
				t.Error("fault injector never fired; the chaos run was not chaotic")
			}
		})
	}
}

// TestChaosZeroFaultRunInjectsNothing is the determinism sanity check: a
// configured injector with all-zero rates must not perturb the crawl at
// all, and the result must equal the reference bit for bit.
func TestChaosZeroFaultRunInjectsNothing(t *testing.T) {
	ref := referenceCrawl(t)
	w := testWorld(t)
	srv := apiserver.New(w, apiserver.Options{
		Tokens:       []string{"t1", "t2", "t3"},
		TwitterLimit: 1 << 30,
		Faults:       &apiserver.FaultConfig{Seed: 1234},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, []string{"t1", "t2", "t3"})
	if err != nil {
		t.Fatal(err)
	}
	client.Sleep = func(time.Duration) {}
	cr := &Crawler{Client: client, Workers: 8}
	snap, err := cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.FaultStats().Total(); got != 0 {
		t.Fatalf("zero-rate injector fired %d times", got)
	}
	if st := client.counters(); st.Retries != 0 || st.BodyRetries != 0 {
		t.Fatalf("client retried against a healthy server: %+v", st)
	}
	if got := canonical(t, snap); !bytes.Equal(got, ref) {
		t.Fatal("zero-fault crawl diverges from reference")
	}
}

// TestChaosIdenticalSeedsIdenticalSchedules re-runs the same faulted
// crawl twice and checks the server-side fault log matches, proving the
// schedule is a function of (seed, method, path, call#) alone.
func TestChaosIdenticalSeedsIdenticalSchedules(t *testing.T) {
	w := testWorld(t)
	run := func() (apiserver.FaultStats, []byte) {
		srv := apiserver.New(w, apiserver.Options{
			Tokens:       []string{"t1", "t2"},
			TwitterLimit: 1 << 30,
			Faults: &apiserver.FaultConfig{
				Seed: 21,
				Default: apiserver.FaultProfile{
					ServerError: 0.05, Truncate: 0.03,
				},
			},
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client, err := NewClient(ts.URL, []string{"t1", "t2"})
		if err != nil {
			t.Fatal(err)
		}
		client.Sleep = func(time.Duration) {}
		client.MaxRetries = 10
		cr := &Crawler{Client: client, Workers: 1} // serial: identical request order
		snap, err := cr.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return srv.FaultStats(), canonical(t, snap)
	}
	stats1, snap1 := run()
	stats2, snap2 := run()
	if stats1 != stats2 {
		t.Fatalf("same seed, different fault schedules: %+v vs %+v", stats1, stats2)
	}
	if stats1.Total() == 0 {
		t.Fatal("no faults fired at 8% combined rate")
	}
	if !bytes.Equal(snap1, snap2) {
		t.Fatal("same seed produced different snapshots")
	}
}

// TestCheckpointRoundTrip covers the save/load primitives directly.
func TestCheckpointRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := LoadCheckpoint(context.Background(), st, "checkpoint/none"); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	cp := &Checkpoint{
		Seq:             3,
		Phase:           PhaseBFS,
		Round:           2,
		StartupFrontier: []string{"s1", "s2"},
		UserFrontier:    []string{"u9"},
		Snap: &Snapshot{
			Startups: map[string]*ecosystem.Startup{"s0": {ID: "s0", Name: "Zero"}},
		},
	}
	if err := SaveCheckpoint(context.Background(), st, "checkpoint/crawl", cp); err != nil {
		t.Fatal(err)
	}
	// A later checkpoint must shadow the earlier one.
	cp2 := &Checkpoint{Seq: 4, Phase: PhaseAugment, Round: 3, AugmentDone: []string{"s0"}, Snap: cp.Snap}
	if err := SaveCheckpoint(context.Background(), st, "checkpoint/crawl", cp2); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadCheckpoint(context.Background(), st, "checkpoint/crawl")
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Seq != 4 || got.Phase != PhaseAugment || got.Round != 3 {
		t.Fatalf("loaded the wrong checkpoint: %+v", got)
	}
	if len(got.AugmentDone) != 1 || got.AugmentDone[0] != "s0" {
		t.Fatalf("augment done lost: %v", got.AugmentDone)
	}
	if got.Snap.Startups["s0"].Name != "Zero" {
		t.Fatal("snapshot contents lost in round trip")
	}
	// All maps usable even where the JSON had none.
	if got.Snap.Users == nil || got.Snap.Twitter == nil {
		t.Fatal("nil maps after load")
	}
}
