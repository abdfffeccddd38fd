package core

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/leakcheck"
	"crowdscope/internal/store"
)

var (
	chaosWorldOnce sync.Once
	chaosWorld     *ecosystem.World
)

func chaosTestWorld() *ecosystem.World {
	chaosWorldOnce.Do(func() {
		w, err := ecosystem.Generate(ecosystem.NewConfig(21, 0.001))
		if err != nil {
			panic(err)
		}
		chaosWorld = w
	})
	return chaosWorld
}

var chaosTokens = []string{"t1", "t2", "t3"}

func newChaosClient(t *testing.T, url string) *crawler.Client {
	t.Helper()
	client, err := crawler.NewClient(url, chaosTokens)
	if err != nil {
		t.Fatal(err)
	}
	client.Sleep = func(time.Duration) {}
	client.MaxRetries = 10
	return client
}

// killSwitch simulates a SIGKILL: after limit requests it cancels the
// crawler's context and fails every further request.
type killSwitch struct {
	n      atomic.Int64
	limit  int64
	cancel context.CancelFunc
}

var errKilled = errors.New("chaos: crawler killed")

func (k *killSwitch) RoundTrip(req *http.Request) (*http.Response, error) {
	if k.n.Add(1) > k.limit {
		k.cancel()
		return nil, errKilled
	}
	return http.DefaultTransport.RoundTrip(req)
}

// referenceFrozen runs one fault-free crawl of the shared world,
// persists and freezes it unsharded, and returns the frozen snap and
// index blob bytes.
func referenceFrozen(t *testing.T) (snapBlob, idxBlob []byte) {
	t.Helper()
	srv := apiserver.New(chaosTestWorld(), apiserver.Options{Tokens: chaosTokens, TwitterLimit: 1 << 30})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cr := &crawler.Crawler{Client: newChaosClient(t, ts.URL), Workers: 8}
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
	if _, err := BuildFrozen(ctx, st, 0); err != nil {
		t.Fatal(err)
	}
	return frozenBlobs(t, st, 0)
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
	srv := apiserver.New(chaosTestWorld(), apiserver.Options{
		Tokens:       chaosTokens,
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
		client := newChaosClient(t, ts.URL)
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
	shardCrawlNamespaces(t, st, 4)
	if err := crawler.Persist(ctx, st, snap, 0); err != nil {
		t.Fatal(err)
	}
	if k, err := st.ShardCount(crawler.NSStartups); err != nil || k != 4 {
		t.Fatalf("startups shard count = %d (err %v), want 4", k, err)
	}
	if _, err := BuildFrozen(ctx, st, 0); err != nil {
		t.Fatal(err)
	}
	gotSnap, gotIdx := frozenBlobs(t, st, 0)
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
