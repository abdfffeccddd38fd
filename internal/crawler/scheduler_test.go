package crawler

import (
	"context"
	"strings"
	"testing"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/store"
)

// TestSchedulerPersistFailurePropagates: when Persist cannot write (the
// startups namespace already has an open writer), RunOnce must surface
// the error and must NOT advance the snapshot counter, so the retry
// reuses the same snapshot number.
func TestSchedulerPersistFailurePropagates(t *testing.T) {
	_, _, client := harness(t, apiserver.Options{})
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := &Scheduler{
		Crawler: &Crawler{Client: client, Workers: 8},
		Store:   st,
	}

	w, err := st.Writer(NSStartups, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.RunOnce(context.Background()); err == nil {
		t.Fatal("RunOnce succeeded with the startups namespace locked")
	} else if !strings.Contains(err.Error(), "already has an open writer") {
		t.Fatalf("unexpected error: %v", err)
	}
	if sched.Snapshots() != 0 {
		t.Fatalf("failed run advanced the counter to %d", sched.Snapshots())
	}

	// Release the writer; the retry persists as snapshot 0.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := sched.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sched.Snapshots() != 1 {
		t.Fatalf("snapshots = %d after successful retry", sched.Snapshots())
	}
	records, err := store.ReadAll[StartupRecord](st, NSStartups)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(snap.Startups) {
		t.Fatalf("persisted %d records, snapshot has %d", len(records), len(snap.Startups))
	}
	for _, r := range records {
		if r.Snapshot != 0 {
			t.Fatalf("retry tagged a record with snapshot %d, want 0", r.Snapshot)
		}
	}
}

// TestSchedulerSnapshotNumberingMonotonic runs three passes and checks
// the persisted tags count 0, 1, 2 in order.
func TestSchedulerSnapshotNumberingMonotonic(t *testing.T) {
	_, _, client := harness(t, apiserver.Options{})
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := &Scheduler{
		Crawler: &Crawler{Client: client, Workers: 8},
		Store:   st,
	}
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := sched.RunOnce(context.Background()); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if sched.Snapshots() != i+1 {
			t.Fatalf("after run %d: snapshots = %d", i, sched.Snapshots())
		}
	}
	records, err := store.ReadAll[UserRecord](st, NSUsers)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range records {
		if r.Snapshot < 0 || r.Snapshot >= runs {
			t.Fatalf("record tagged with out-of-range snapshot %d", r.Snapshot)
		}
		seen[r.Snapshot] = true
	}
	for i := 0; i < runs; i++ {
		if !seen[i] {
			t.Fatalf("no records tagged with snapshot %d", i)
		}
	}
}

// TestSchedulerSeedsOnlyCopySemantics: RunOnce works on a copy of the
// configured crawler, so a SeedsOnly pass must not mutate the caller's
// Crawler, and its crawl must stop at the two-round neighborhood.
func TestSchedulerSeedsOnlyCopySemantics(t *testing.T) {
	w, _, client := harness(t, apiserver.Options{})
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := &Crawler{Client: client, Workers: 4, SkipAugmentation: true}
	sched := &Scheduler{Crawler: base, Store: st, SeedsOnly: true}
	snap, err := sched.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if base.MaxRounds != 0 {
		t.Fatalf("RunOnce mutated the caller's crawler: MaxRounds = %d", base.MaxRounds)
	}
	if snap.Stats.StartupsCrawled >= len(w.Startups) {
		t.Fatalf("seeds-only pass crawled the whole world (%d startups)", snap.Stats.StartupsCrawled)
	}
	if snap.Stats.StartupsCrawled < snap.Stats.SeedStartups {
		t.Fatalf("seeds-only pass lost seeds: %d < %d", snap.Stats.StartupsCrawled, snap.Stats.SeedStartups)
	}
}
