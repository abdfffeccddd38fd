package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/leakcheck"
	"crowdscope/internal/store"
)

// fakeClock is the fleet tests' deterministic time source: leases expire
// only when a test says so.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLeaseLifecycle(t *testing.T) {
	leakcheck.Check(t)
	st := openStore(t)
	clk := newFakeClock()
	ls := &Leases{Store: st, Clock: clk.Now}
	ctx := context.Background()

	a, err := ls.acquire(ctx, "part-0000", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if a.Token != 1 {
		t.Fatalf("first token = %d, want 1", a.Token)
	}
	if _, err := ls.acquire(ctx, "part-0000", "bob"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("double claim: %v, want ErrLeaseHeld", err)
	}
	b, err := ls.acquire(ctx, "part-0001", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if b.Token <= a.Token {
		t.Fatalf("tokens not strictly increasing: %d after %d", b.Token, a.Token)
	}

	// A renew 30s in pushes expiry to t+90s: at t+75s the claim must
	// still hold even though the original TTL has lapsed.
	clk.Advance(30 * time.Second)
	if err := ls.renew(ctx, &a); err != nil {
		t.Fatal(err)
	}
	if err := ls.renew(ctx, &b); err != nil {
		t.Fatal(err)
	}
	clk.Advance(45 * time.Second)
	if _, err := ls.acquire(ctx, "part-0000", "bob"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("claim after renew: %v, want ErrLeaseHeld", err)
	}
	if err := ls.verify(ctx, a); err != nil {
		t.Fatalf("check of live lease: %v", err)
	}

	// Release hands the key back immediately; the stale handle is fenced
	// from then on.
	if err := ls.release(ctx, a); err != nil {
		t.Fatal(err)
	}
	c, err := ls.acquire(ctx, "part-0000", "bob")
	if err != nil {
		t.Fatalf("claim after release: %v", err)
	}
	if c.Token <= b.Token {
		t.Fatalf("reclaim token %d not above %d", c.Token, b.Token)
	}
	if err := ls.verify(ctx, a); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale check: %v, want ErrFenced", err)
	}
	if err := ls.renew(ctx, &a); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale renew: %v, want ErrFenced", err)
	}
	if err := ls.release(ctx, a); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale release: %v, want ErrFenced", err)
	}

	cur, _, err := ls.state(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"part-0000", "part-0001"} {
		if rec := cur[key]; rec.Owner != "bob" || rec.Released || rec.Expires <= clk.Now().UnixNano() {
			t.Fatalf("live claim on %s = %+v, want bob's", key, rec)
		}
	}
}

func TestLeaseExpiryReclaimFencesOldOwner(t *testing.T) {
	leakcheck.Check(t)
	st := openStore(t)
	clk := newFakeClock()
	ls := &Leases{Store: st, Clock: clk.Now}
	ctx := context.Background()

	a, err := ls.acquire(ctx, "part-0000", "alice")
	if err != nil {
		t.Fatal(err)
	}
	// alice crashes: no renewals. Before expiry bob stays locked out;
	// one TTL later the partition is his, and alice's handle is dead.
	clk.Advance(59 * time.Second)
	if _, err := ls.acquire(ctx, "part-0000", "bob"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("pre-expiry claim: %v, want ErrLeaseHeld", err)
	}
	clk.Advance(2 * time.Second)
	b, err := ls.acquire(ctx, "part-0000", "bob")
	if err != nil {
		t.Fatalf("post-expiry claim: %v", err)
	}
	if b.Token <= a.Token {
		t.Fatalf("reclaim token %d not above expired %d", b.Token, a.Token)
	}
	if err := ls.renew(ctx, &a); !errors.Is(err, ErrFenced) {
		t.Fatalf("expired owner renew: %v, want ErrFenced", err)
	}

	// Same-owner reacquire (worker retry loop) also re-mints: the old
	// handle must not keep working.
	b2, err := ls.acquire(ctx, "part-0000", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if b2.Token <= b.Token {
		t.Fatalf("reacquire token %d not above %d", b2.Token, b.Token)
	}
	if err := ls.verify(ctx, b); !errors.Is(err, ErrFenced) {
		t.Fatalf("old same-owner handle: %v, want ErrFenced", err)
	}
}

func TestLeasesSurviveStoreReopen(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	ctx := context.Background()
	ls := &Leases{Store: st, Clock: clk.Now}
	a, err := ls.acquire(ctx, "part-0000", "alice")
	if err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same directory sees the claim and its
	// token floor: the next mint is still strictly above alice's.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ls2 := &Leases{Store: st2, Clock: clk.Now}
	if _, err := ls2.acquire(ctx, "part-0000", "bob"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("cross-handle claim: %v, want ErrLeaseHeld", err)
	}
	clk.Advance(2 * time.Minute)
	b, err := ls2.acquire(ctx, "part-0000", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if b.Token <= a.Token {
		t.Fatalf("cross-handle token %d not above %d", b.Token, a.Token)
	}
}

// TestFencedCheckpointShadowing is the write-side half of fencing: even
// if a stale ex-owner's append slips past the guard (a zombie process
// flushing after reclamation), the reclaiming owner's higher-fence
// checkpoint still wins every load.
func TestFencedCheckpointShadowing(t *testing.T) {
	leakcheck.Check(t)
	st := openStore(t)
	ctx := context.Background()
	p := Partition{Index: 0, Seeds: []string{"s1"}}

	stale := &crawler.Checkpoint{
		Seq: 0, Phase: crawler.PhaseBFS, Fence: 1,
		Snap: &crawler.Snapshot{Startups: map[string]*ecosystem.Startup{"s1": {ID: "s1", Name: "stale"}}},
	}
	if err := crawler.SaveCheckpoint(ctx, st, p.checkpointNS(), stale); err != nil {
		t.Fatal(err)
	}
	current := &crawler.Checkpoint{
		Seq: 0, Phase: crawler.PhaseDone, Fence: 2,
		Snap: &crawler.Snapshot{Startups: map[string]*ecosystem.Startup{"s1": {ID: "s1", Name: "current"}}},
	}
	if err := crawler.SaveCheckpoint(ctx, st, p.checkpointNS(), current); err != nil {
		t.Fatal(err)
	}
	// The zombie's late append lands AFTER the winner in the log, with a
	// terminal phase — under naive latest-wins it would corrupt the
	// partition. Under fencing it is inert.
	zombie := &crawler.Checkpoint{
		Seq: 1, Phase: crawler.PhaseDone, Fence: 1,
		Snap: &crawler.Snapshot{Startups: map[string]*ecosystem.Startup{"s1": {ID: "s1", Name: "zombie"}}},
	}
	if err := crawler.SaveCheckpoint(ctx, st, p.checkpointNS(), zombie); err != nil {
		t.Fatal(err)
	}

	got, ok, err := crawler.LoadCheckpoint(ctx, st, p.checkpointNS())
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Fence != 2 || got.Snap.Startups["s1"].Name != "current" {
		t.Fatalf("winner fence=%d name=%q, want the fence-2 record", got.Fence, got.Snap.Startups["s1"].Name)
	}
	done, err := partitionDone(ctx, st, p)
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	merged, err := MergePartitions(ctx, st, []Partition{p})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Startups["s1"].Name != "current" {
		t.Fatalf("merge picked %q, want the current owner's record", merged.Startups["s1"].Name)
	}
}

func TestMergeRefusesIncompletePartition(t *testing.T) {
	leakcheck.Check(t)
	st := openStore(t)
	ctx := context.Background()
	p := Partition{Index: 3, Seeds: []string{"s1"}}
	if _, err := MergePartitions(ctx, st, []Partition{p}); !errors.Is(err, ErrPartitionIncomplete) {
		t.Fatalf("merge of unstarted partition: %v, want ErrPartitionIncomplete", err)
	}
	cp := &crawler.Checkpoint{Phase: crawler.PhaseBFS, Snap: &crawler.Snapshot{}}
	if err := crawler.SaveCheckpoint(ctx, st, p.checkpointNS(), cp); err != nil {
		t.Fatal(err)
	}
	if _, err := MergePartitions(ctx, st, []Partition{p}); !errors.Is(err, ErrPartitionIncomplete) {
		t.Fatalf("merge of mid-crawl partition: %v, want ErrPartitionIncomplete", err)
	}
}

func TestPartitionSeedsDeterministicAndComplete(t *testing.T) {
	seeds := []string{"s9", "s1", "s5", "s3", "s1", "s7"} // dup s1 on purpose
	a := PartitionSeeds(seeds, 3)
	b := PartitionSeeds([]string{"s3", "s7", "s5", "s1", "s9"}, 3) // other order, no dup
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("partition counts: %d, %d", len(a), len(b))
	}
	seen := map[string]int{}
	for i := range a {
		if a[i].Index != i {
			t.Fatalf("partition %d has index %d", i, a[i].Index)
		}
		if len(a[i].Seeds) != len(b[i].Seeds) {
			t.Fatalf("partitioning depends on input order: %v vs %v", a[i].Seeds, b[i].Seeds)
		}
		for j, id := range a[i].Seeds {
			if b[i].Seeds[j] != id {
				t.Fatalf("partitioning depends on input order: %v vs %v", a[i].Seeds, b[i].Seeds)
			}
			seen[id]++
		}
	}
	for _, id := range []string{"s1", "s3", "s5", "s7", "s9"} {
		if seen[id] < 1 {
			t.Fatalf("seed %s lost by partitioning", id)
		}
	}
}
