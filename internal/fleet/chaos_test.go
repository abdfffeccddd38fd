package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
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

var testTokens = []string{"t1", "t2", "t3"}

func newTestClient(t *testing.T, url string) *crawler.Client {
	t.Helper()
	client, err := crawler.NewClient(url, testTokens)
	if err != nil {
		t.Fatal(err)
	}
	client.Sleep = func(time.Duration) {}
	client.MaxRetries = 10
	return client
}

// killSwitch simulates a SIGKILL: after limit requests it cancels the
// worker's context and fails every further request.
type killSwitch struct {
	n      atomic.Int64
	limit  int64
	cancel context.CancelFunc
}

var errKilled = errors.New("chaos: worker killed")

func (k *killSwitch) RoundTrip(req *http.Request) (*http.Response, error) {
	if k.n.Add(1) > k.limit {
		k.cancel()
		return nil, errKilled
	}
	return http.DefaultTransport.RoundTrip(req)
}

// referenceFrozen runs one fault-free single-worker crawl of the shared
// world, persists and freezes it, and returns the frozen snap and index
// blob bytes — the artifact every fleet run must reproduce exactly.
func referenceFrozen(t *testing.T) (snapBlob, idxBlob []byte) {
	t.Helper()
	srv := apiserver.New(testWorld(t), apiserver.Options{Tokens: testTokens, TwitterLimit: 1 << 30})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cr := &crawler.Crawler{Client: newTestClient(t, ts.URL), Workers: 8}
	snap, err := cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := crawler.Persist(ctx, st, snap, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := core.BuildFrozen(ctx, st, 0); err != nil {
		t.Fatal(err)
	}
	return frozenBlobs(t, st)
}

func frozenBlobs(t *testing.T, st *store.Store) (snapBlob, idxBlob []byte) {
	t.Helper()
	snapBlob, _, err := st.GetBlob(core.FrozenNamespace(0))
	if err != nil {
		t.Fatal(err)
	}
	idxBlob, _, err = st.GetBlob(core.IndexNamespace(0))
	if err != nil {
		t.Fatal(err)
	}
	return snapBlob, idxBlob
}

// listSeeds fetches the raising listing once, the way the fleet
// coordinator does before partitioning.
func listSeeds(t *testing.T, url string) []string {
	t.Helper()
	seeds, err := newTestClient(t, url).RaisingStartups(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return seeds
}

// TestFleetChaosKillWorkersMergeBitIdentical is the fleet's headline
// chaos suite: three workers crawl a partitioned seed listing against a
// fault-injecting server; workers are SIGKILLed mid-round at seeded
// (seed, rate) combos; killed workers' leases expire on the fake clock
// and fresh workers reclaim and resume their partitions; and the merged,
// frozen artifact must be byte-identical to a fault-free single-worker
// crawl of the same listing.
func TestFleetChaosKillWorkersMergeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not short")
	}
	leakcheck.Check(t)
	refSnap, refIdx := referenceFrozen(t)
	w := testWorld(t)

	cases := []struct {
		name   string
		faults apiserver.FaultConfig
		killAt int64 // per-worker request budget per wave
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
			killAt: 300,
		},
		{
			name: "heavy 5xx and resets",
			faults: apiserver.FaultConfig{
				Seed:    7,
				Default: apiserver.FaultProfile{ServerError: 0.08, Reset: 0.05},
			},
			killAt: 250,
		},
		{
			name: "rate-limit bursts and truncation",
			faults: apiserver.FaultConfig{
				Seed:     99,
				Default:  apiserver.FaultProfile{RateLimit: 0.04, Truncate: 0.06},
				BurstLen: 3,
			},
			killAt: 350,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			faults := tc.faults
			srv := apiserver.New(w, apiserver.Options{
				Tokens:       testTokens,
				TwitterLimit: 1 << 30,
				Faults:       &faults,
			})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			parts := PartitionSeeds(listSeeds(t, ts.URL), 4)
			dir := t.TempDir()
			clk := newFakeClock()

			const fleetSize = 3
			const maxWaves = 25
			kills := 0
			var st *store.Store
			for wave := 0; ; wave++ {
				if wave >= maxWaves {
					t.Fatalf("fleet did not finish after %d waves (%d kills)", wave, kills)
				}
				// Every wave simulates a fresh process tree over the same
				// store directory; dead workers' leases expired meanwhile.
				var err error
				st, err = store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if wave > 0 {
					clk.Advance(2 * DefaultLeaseTTL)
				}
				leases := &Leases{Store: st, Clock: clk.Now}

				var wg sync.WaitGroup
				errs := make([]error, fleetSize)
				for i := 0; i < fleetSize; i++ {
					client := newTestClient(t, ts.URL)
					ctx, cancel := context.WithCancel(context.Background())
					ks := &killSwitch{cancel: cancel}
					// The budget grows wave over wave so partitions larger
					// than the initial budget still complete; late waves run
					// unrestricted.
					ks.limit = tc.killAt + int64(wave)*tc.killAt
					if wave >= 8 {
						ks.limit = 1 << 60
					}
					client.HTTP = &http.Client{Transport: ks}
					worker := &Worker{
						ID:     fmt.Sprintf("w%d-wave%d", i, wave),
						Client: client,
						Store:  st,
						Leases: leases,
					}
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						defer cancel()
						errs[i] = worker.run(ctx, parts)
					}(i)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						kills++
					}
				}
				done, err := AllDone(context.Background(), st, parts)
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
			}
			if kills == 0 {
				t.Fatal("no worker was ever killed; lower the kill budget")
			}

			ctx := context.Background()
			merged, err := MergePartitions(ctx, st, parts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := CommitMerged(ctx, st, merged, 0); err != nil {
				t.Fatal(err)
			}
			gotSnap, gotIdx := frozenBlobs(t, st)
			if !bytes.Equal(gotSnap, refSnap) {
				t.Fatalf("merged frozen snap blob diverges from fault-free single-worker crawl: %d vs %d bytes",
					len(gotSnap), len(refSnap))
			}
			if !bytes.Equal(gotIdx, refIdx) {
				t.Fatalf("merged frozen index blob diverges from fault-free single-worker crawl: %d vs %d bytes",
					len(gotIdx), len(refIdx))
			}
			if srv.FaultStats().Total() == 0 {
				t.Error("fault injector never fired; the chaos run was not chaotic")
			}
		})
	}
}

// TestFleetZeroFaultMergeBitIdentical drives the whole fleet through the
// RunWorkers front door against a healthy server: two workers, four
// partitions, no kills — and the merged frozen artifact still equals the
// single-worker reference bit for bit. This is the determinism baseline
// the chaos suite perturbs.
func TestFleetZeroFaultMergeBitIdentical(t *testing.T) {
	leakcheck.Check(t)
	refSnap, refIdx := referenceFrozen(t)
	srv := apiserver.New(testWorld(t), apiserver.Options{Tokens: testTokens, TwitterLimit: 1 << 30})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	parts := PartitionSeeds(listSeeds(t, ts.URL), 4)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	leases := &Leases{Store: st, Clock: clk.Now}
	client := newTestClient(t, ts.URL) // shared: its limiter paces the whole fleet
	workers := []*Worker{
		{ID: "w0", Client: client, Store: st, Leases: leases},
		{ID: "w1", Client: client, Store: st, Leases: leases},
	}
	ctx := context.Background()
	if err := RunWorkers(ctx, workers, parts); err != nil {
		t.Fatal(err)
	}
	done, err := AllDone(ctx, st, parts)
	if err != nil || !done {
		t.Fatalf("done=%v err=%v after RunWorkers", done, err)
	}
	if got := workers[0].Completed + workers[1].Completed; got != len(parts) {
		t.Fatalf("workers completed %d partitions, want %d", got, len(parts))
	}

	merged, err := MergePartitions(ctx, st, parts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CommitMerged(ctx, st, merged, 0); err != nil {
		t.Fatal(err)
	}
	gotSnap, gotIdx := frozenBlobs(t, st)
	if !bytes.Equal(gotSnap, refSnap) || !bytes.Equal(gotIdx, refIdx) {
		t.Fatal("zero-fault fleet merge diverges from single-worker reference")
	}
}

// TestShardedKillResumeFrozenBitIdentical is the sharded-store
// checkpoint-resume case: a single crawler is SIGKILLed and resumed
// against a faulty server, its final snapshot persists into a K=4
// hash-sharded store, and the shard-at-a-time frozen build must produce
// blobs byte-identical to the unsharded fault-free reference.
func TestShardedKillResumeFrozenBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not short")
	}
	leakcheck.Check(t)
	refSnap, refIdx := referenceFrozen(t)
	faults := apiserver.FaultConfig{
		Seed:    5,
		Default: apiserver.FaultProfile{ServerError: 0.04, Truncate: 0.03, Reset: 0.02},
	}
	srv := apiserver.New(testWorld(t), apiserver.Options{
		Tokens:       testTokens,
		TwitterLimit: 1 << 30,
		Faults:       &faults,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	dir := t.TempDir()

	var snap *crawler.Snapshot
	var st *store.Store
	kills := 0
	const maxAttempts = 25
	for attempt := 0; ; attempt++ {
		if attempt >= maxAttempts {
			t.Fatalf("crawl did not finish after %d attempts (%d kills)", attempt, kills)
		}
		var err error
		st, err = store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		client := newTestClient(t, ts.URL)
		ctx, cancel := context.WithCancel(context.Background())
		ks := &killSwitch{cancel: cancel, limit: 400 + int64(attempt)*400}
		if attempt >= 8 {
			ks.limit = 1 << 60
		}
		client.HTTP = &http.Client{Transport: ks}
		cr := &crawler.Crawler{
			Client:     client,
			Workers:    4,
			Checkpoint: &crawler.CheckpointConfig{Store: st, Namespace: "checkpoint/crawl", Resume: attempt > 0},
		}
		snap, err = cr.Run(ctx)
		cancel()
		if err == nil {
			break
		}
		kills++
	}
	if kills == 0 {
		t.Fatal("the crawl was never killed; lower the kill budget")
	}

	ctx := context.Background()
	if err := crawler.PersistSharded(ctx, st, snap, 0, 4); err != nil {
		t.Fatal(err)
	}
	if k, err := st.ShardCount(crawler.NSStartups); err != nil || k != 4 {
		t.Fatalf("startups shard count = %d (err %v), want 4", k, err)
	}
	if _, err := core.BuildFrozen(ctx, st, 0); err != nil {
		t.Fatal(err)
	}
	gotSnap, gotIdx := frozenBlobs(t, st)
	if !bytes.Equal(gotSnap, refSnap) {
		t.Fatalf("sharded killed+resumed frozen snap diverges from reference: %d vs %d bytes",
			len(gotSnap), len(refSnap))
	}
	if !bytes.Equal(gotIdx, refIdx) {
		t.Fatalf("sharded killed+resumed frozen index diverges from reference: %d vs %d bytes",
			len(gotIdx), len(refIdx))
	}
	if srv.FaultStats().Total() == 0 {
		t.Error("fault injector never fired")
	}
}

// TestStaleWorkerGuardAbortsCrawl wires a real crawl to a lease that
// gets reclaimed mid-run: the stale worker's very next checkpoint write
// must fail with ErrFenced instead of persisting anything.
func TestStaleWorkerGuardAbortsCrawl(t *testing.T) {
	leakcheck.Check(t)
	srv := apiserver.New(testWorld(t), apiserver.Options{Tokens: testTokens, TwitterLimit: 1 << 30})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	leases := &Leases{Store: st, Clock: clk.Now}
	ctx := context.Background()

	parts := PartitionSeeds(listSeeds(t, ts.URL), 2)
	lease, err := leases.acquire(ctx, parts[0].key(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	// alice stalls long enough to expire; bob reclaims the partition.
	clk.Advance(2 * DefaultLeaseTTL)
	if _, err := leases.acquire(ctx, parts[0].key(), "bob"); err != nil {
		t.Fatal(err)
	}

	// alice wakes up and tries to crawl under her stale lease.
	cr := &crawler.Crawler{
		Client: newTestClient(t, ts.URL),
		Seeds:  parts[0].Seeds,
		Checkpoint: &crawler.CheckpointConfig{
			Store:     st,
			Namespace: parts[0].checkpointNS(),
			Resume:    true,
			Fence:     lease.Token,
			Guard: func(ctx context.Context) error {
				return leases.renew(ctx, &lease)
			},
		},
	}
	if _, err := cr.Run(ctx); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale crawl finished with %v, want ErrFenced", err)
	}
	// Nothing of alice's survived: the partition has no committed
	// checkpoint at all (her first write was refused).
	if done, err := partitionDone(ctx, st, parts[0]); err != nil || done {
		t.Fatalf("done=%v err=%v after fenced abort", done, err)
	}
	if _, ok, err := crawler.LoadCheckpoint(ctx, st, parts[0].checkpointNS()); err != nil || ok {
		t.Fatalf("fenced worker left a checkpoint: ok=%v err=%v", ok, err)
	}
}
