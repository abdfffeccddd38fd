package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"crowdscope/internal/core"
	"crowdscope/internal/store"
)

// deltaChainStore builds a store whose snapshots 1..rounds were
// committed through the delta path, so frozen/delta-N artifacts exist
// for the server to refresh from.
func deltaChainStore(t testing.TB, rounds int) *store.Store {
	t.Helper()
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := testSnapshot(0)
	if err := core.CommitFrozen(ctx, st, prev); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		next := testSnapshot(r)
		prev, err = core.CommitDelta(ctx, st, prev, core.DiffFrozen(prev, next))
		if err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func statusOf(t testing.TB, h http.Handler) Status {
	t.Helper()
	rec := get(t, h, "/statusz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz = %d", rec.Code)
	}
	var s Status
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRefreshAppliesDeltas: a server already holding snapshot 0 rolls
// forward to new snapshots by applying deltas in memory, serving
// responses identical to a full-reload server, and the statusz counters
// attribute the hot-swaps to the delta path.
func TestRefreshAppliesDeltas(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := testSnapshot(0)
	if err := core.CommitFrozen(ctx, st, prev); err != nil {
		t.Fatal(err)
	}

	opts := testOptions(newFakeClock())
	opts.DeltaRefresh = true
	srv := New(&StoreBackend{Store: st}, opts)
	if err := srv.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	// Two more rounds land while the server is up.
	for r := 1; r <= 2; r++ {
		prev, err = core.CommitDelta(ctx, st, prev, core.DiffFrozen(prev, testSnapshot(r)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	h := srv.Handler()
	status := statusOf(t, h)
	if status.Snapshot != 2 {
		t.Fatalf("serving snapshot %d, want 2", status.Snapshot)
	}
	if status.FullReloads != 1 || status.DeltaRefreshes != 1 {
		t.Fatalf("reloads = %d full / %d delta, want 1 / 1", status.FullReloads, status.DeltaRefreshes)
	}

	// A full-reload server over the same store must serve byte-identical
	// snapshot bodies.
	fullOpts := testOptions(newFakeClock())
	full := New(&StoreBackend{Store: st}, fullOpts)
	if err := full.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	fh := full.Handler()
	for _, path := range []string{"/api/snapshot/companies", "/api/snapshot/investors", "/api/snapshot/stats"} {
		a, b := get(t, h, path), get(t, fh, path)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%s: codes %d / %d", path, a.Code, b.Code)
		}
		if a.Body.String() != b.Body.String() {
			t.Fatalf("%s: delta-refreshed body differs from full reload", path)
		}
	}
}

// TestRefreshDeltaFaultFallsBackToFullReload: every delta apply fails, so
// the server must fall back to whole-artifact reloads and still land on
// the latest snapshot.
func TestRefreshDeltaFaultFallsBackToFullReload(t *testing.T) {
	ctx := context.Background()
	st := deltaChainStore(t, 2)

	faulty := NewFaultyBackend(&StoreBackend{Store: st}, FaultConfig{
		Seed:  1,
		PerOp: map[string]float64{"LoadDelta": 1},
	})
	opts := testOptions(newFakeClock())
	opts.DeltaRefresh = true
	logged := 0
	opts.Logf = func(string, ...any) { logged++ }
	srv := New(faulty, opts)

	// The first refresh has nothing served yet, so it is a full load of
	// snapshot 2 regardless of deltas.
	if err := srv.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	status := statusOf(t, srv.Handler())
	if status.Snapshot != 2 || status.FullReloads != 1 {
		t.Fatalf("status = %+v, want snapshot 2 via full reload", status)
	}

	// Roll one more round in: the delta path is attempted, fails, falls
	// back, and the fallback is logged.
	prev, err := core.LoadFrozen(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.CommitDelta(ctx, st, prev, core.DiffFrozen(prev, testSnapshot(3))); err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	status = statusOf(t, srv.Handler())
	if status.Snapshot != 3 {
		t.Fatalf("serving snapshot %d, want 3", status.Snapshot)
	}
	if status.DeltaRefreshes != 0 || status.FullReloads != 2 {
		t.Fatalf("reloads = %d full / %d delta, want 2 / 0", status.FullReloads, status.DeltaRefreshes)
	}
	if logged == 0 {
		t.Fatal("delta fallback was not logged")
	}
}

// TestRefreshSeesExternalCommits: the real deployment shape is a
// crawler process committing rounds to a store another process serves
// from. The serving handle opened its manifest before those commits, so
// StoreBackend.LatestFrozen must reload it on every poll — otherwise
// the refresh loop never sees new snapshots at all.
func TestRefreshSeesExternalCommits(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	wst, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prev := testSnapshot(0)
	if err := core.CommitFrozen(ctx, wst, prev); err != nil {
		t.Fatal(err)
	}

	// The serving handle opens now: it will never observe the writer
	// handle's later commits except through a manifest reload.
	rst, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(newFakeClock())
	opts.DeltaRefresh = true
	srv := New(&StoreBackend{Store: rst}, opts)
	if err := srv.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	for r := 1; r <= 2; r++ {
		prev, err = core.CommitDelta(ctx, wst, prev, core.DiffFrozen(prev, testSnapshot(r)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	status := statusOf(t, srv.Handler())
	if status.Snapshot != 2 {
		t.Fatalf("serving snapshot %d after external commits, want 2", status.Snapshot)
	}
	if status.DeltaRefreshes != 1 || status.FullReloads != 1 {
		t.Fatalf("reloads = %d full / %d delta, want 1 / 1", status.FullReloads, status.DeltaRefreshes)
	}
}

// TestRefreshWithoutDeltaCapability: a backend whose ApplyDelta fails
// (stubBackend serves no deltas) silently uses full reloads even with
// DeltaRefresh on.
func TestRefreshWithoutDeltaCapability(t *testing.T) {
	ctx := context.Background()
	stub := &stubBackend{latest: 0, fs: testSnapshot(0)}
	opts := testOptions(newFakeClock())
	opts.DeltaRefresh = true
	srv := New(stub, opts)
	if err := srv.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	stub.latest, stub.fs = 1, testSnapshot(1)
	if err := srv.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	status := statusOf(t, srv.Handler())
	if status.Snapshot != 1 || status.DeltaRefreshes != 0 || status.FullReloads != 2 {
		t.Fatalf("status = %+v, want snapshot 1 via two full reloads", status)
	}
}

// TestServedSnapshotIsQueriedSnapshot: a replica holds one decoded copy
// per snapshot version. After a full Refresh, and again after a delta
// Refresh, the snapshot /api/snapshot/* serves is the very one the
// backend hands out for that version, and a frozen/snap-N query reads
// its rows (a probe written into the served rows comes back in the
// query's answer); statusz still attributes each swap to its path.
func TestServedSnapshotIsQueriedSnapshot(t *testing.T) {
	ctx := context.Background()
	backend := &pinnedBackend{StoreBackend: &StoreBackend{Store: deltaChainStore(t, 2)}}
	opts := testOptions(newFakeClock())
	opts.DeltaRefresh = true
	srv := New(backend, opts)
	h := srv.Handler()

	for _, step := range []struct {
		pin         int
		full, delta int64
	}{{0, 1, 0}, {2, 1, 1}} {
		backend.pin = step.pin
		if err := srv.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		status := statusOf(t, h)
		if status.Snapshot != step.pin || status.FullReloads != step.full || status.DeltaRefreshes != step.delta {
			t.Fatalf("status = snapshot %d, %d full / %d delta; want %d, %d / %d",
				status.Snapshot, status.FullReloads, status.DeltaRefreshes, step.pin, step.full, step.delta)
		}
		served, _ := srv.cache.get()
		loaded, err := backend.LoadFrozen(ctx, step.pin)
		if err != nil {
			t.Fatal(err)
		}
		if served != loaded {
			t.Fatalf("snapshot %d: the server serves one decoded copy and the backend holds another", step.pin)
		}

		probe := 1_000_000 + step.pin
		served.Companies[0].Likes = probe
		stmt := fmt.Sprintf("SELECT Likes FROM frozen/snap-%d/companies WHERE ID = '%s'", step.pin, served.Companies[0].ID)
		rec := get(t, h, queryURL(stmt))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", stmt, rec.Code, rec.Body)
		}
		if want := fmt.Sprintf("[[%d]]", probe); !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("snapshot %d: query answered %s, want the served rows' %s", step.pin, rec.Body, want)
		}
	}
}
