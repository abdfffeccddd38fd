package crowdscope

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
	"crowdscope/internal/store"
)

// roundBlobs returns the round's committed snapshot and index blobs.
func roundBlobs(t *testing.T, st *store.Store, round int) [2][]byte {
	t.Helper()
	var out [2][]byte
	for i, ns := range []string{core.FrozenNamespace(round), core.IndexNamespace(round)} {
		data, _, err := st.GetBlob(ns)
		if err != nil {
			t.Fatalf("round %d: %s: %v", round, ns, err)
		}
		out[i] = data
	}
	return out
}

func sameBlobs(a, b [2][]byte) bool {
	return bytes.Equal(a[0], b[0]) && bytes.Equal(a[1], b[1])
}

// crawlRounds runs a fresh pipeline over cfg for the given number of
// rounds, 15 simulated days apart, returning it and each round's blobs.
func crawlRounds(t *testing.T, cfg PipelineConfig, rounds int) (*Pipeline, [][2][]byte) {
	t.Helper()
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	var blobs [][2][]byte
	for r := 0; r < rounds; r++ {
		if r > 0 {
			p.AdvanceDays(15)
		}
		if _, err := p.Crawl(context.Background(), r); err != nil {
			t.Fatalf("crawl round %d: %v", r, err)
		}
		blobs = append(blobs, roundBlobs(t, p.Store, r))
	}
	return p, blobs
}

// TestRecrawlIsIdempotent re-crawls an existing store with a second
// pipeline over the same world. The crawler appends its records to the
// same namespaces, so every round is then persisted twice; the loader
// keeps the last record per entity, so the second run commits the same
// bytes as the first, through the same delta route, with no fallback.
func TestRecrawlIsIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := PipelineConfig{Seed: 7, Scale: 0.002, StoreDir: t.TempDir(), Workers: 4}

	first, want := crawlRounds(t, cfg, 2)
	if first.DeltaFallbacks != 0 {
		t.Fatalf("fresh store took %d delta fallbacks", first.DeltaFallbacks)
	}
	if !first.Store.HasBlob(core.DeltaNamespace(1)) {
		t.Fatal("fresh store round 1 emitted no delta artifact")
	}

	second, got := crawlRounds(t, cfg, 2)
	if second.DeltaFallbacks != 0 {
		t.Fatalf("re-crawl took %d delta fallbacks, want 0", second.DeltaFallbacks)
	}
	for r := range want {
		if !sameBlobs(got[r], want[r]) {
			t.Fatalf("round %d: re-crawl committed different bytes (%d vs %d snapshot bytes)",
				r, len(got[r][0]), len(want[r][0]))
		}
	}
}

// TestDeltaFallbackFreezesFromStore keeps the fallback covered: on a
// re-crawl, the base snapshot is replaced by one carrying a duplicated
// investor row, which the decoder rejects when the next round loads it
// to apply its delta onto. The round must still freeze — from the store,
// counted as a fallback — to the bytes the undisturbed first run
// committed.
func TestDeltaFallbackFreezesFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	ctx := context.Background()
	cfg := PipelineConfig{Seed: 7, Scale: 0.002, StoreDir: t.TempDir(), Workers: 4}
	_, want := crawlRounds(t, cfg, 2)

	p, _ := crawlRounds(t, cfg, 1)
	base, err := core.LoadFrozen(p.Store, 0)
	if err != nil {
		t.Fatal(err)
	}
	base.Investors = append(base.Investors[:1:1], base.Investors...)
	if err := core.CommitFrozen(ctx, p.Store, base); err != nil {
		t.Fatal(err)
	}
	p.AdvanceDays(15)
	if _, err := p.Crawl(ctx, 1); err != nil {
		t.Fatalf("crawl onto a bad base must fall back, not fail: %v", err)
	}
	if p.DeltaFallbacks != 1 {
		t.Fatalf("DeltaFallbacks = %d, want 1", p.DeltaFallbacks)
	}
	if !sameBlobs(roundBlobs(t, p.Store, 1), want[1]) {
		t.Fatal("fallback freeze differs from the undisturbed run's round 1")
	}
	// The first run's delta-1 now sits beside a base it does not apply
	// to; snapshot 1 is read from its own artifact, never rebuilt from it.
	if _, err := core.LoadFrozen(p.Store, 1); err != nil {
		t.Fatalf("snapshot 1 after fallback: %v", err)
	}
}

// TestResumeAfterPersistBeforeMarker kills a checkpointed crawl in the
// window between Persist and the PhasePersisted marker: the round's
// records are in the store, nothing says so. The resumed crawl persists
// the round again and must commit the bytes of a fault-free run.
func TestResumeAfterPersistBeforeMarker(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	ctx := context.Background()
	cfg := PipelineConfig{Seed: 7, Scale: 0.002, Workers: 4}
	cfg.StoreDir = t.TempDir()
	_, want := crawlRounds(t, cfg, 1)

	cfg.StoreDir = t.TempDir()
	cfg.Checkpoint = true
	killed, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer killed.Close()
	// Crawl's steps up to the kill point, on the pipeline's own client,
	// store and checkpoint namespace.
	cr := &crawler.Crawler{Client: killed.client, Workers: cfg.Workers, Checkpoint: &crawler.CheckpointConfig{
		Store:     killed.Store,
		Namespace: "checkpoint/snap-000",
	}}
	snap, err := cr.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := crawler.Persist(ctx, killed.Store, snap, 0); err != nil {
		t.Fatal(err)
	}
	if core.HasFrozen(killed.Store, 0) {
		t.Fatal("kill point is after the freeze; test is vacuous")
	}

	cfg.Resume = true
	resumed, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if _, err := resumed.Crawl(ctx, 0); err != nil {
		t.Fatal(err)
	}
	var persisted int
	err = store.ScanAsContext(ctx, resumed.Store, crawler.NSStartups, func(crawler.StartupRecord) error {
		persisted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if persisted != 2*len(snap.Startups) {
		t.Fatalf("store holds %d startup records for %d startups; the resume did not re-persist and the test is vacuous",
			persisted, len(snap.Startups))
	}
	if !sameBlobs(roundBlobs(t, resumed.Store, 0), want[0]) {
		t.Fatal("resumed crawl committed different bytes than a fault-free run")
	}
}

// TestDeltaRefreezeEquivalenceEndToEnd is the pipeline-level half of the
// delta==refreeze gate: a pipeline crawls an evolving world, committing
// rounds > 0 as frozen/delta-N artifacts; each committed round is then
// re-frozen from the same store's persisted records with
// core.BuildFrozen, and the snapshot and index blobs must not move.
func TestDeltaRefreezeEquivalenceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	for _, seed := range []int64{5, 11} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			ctx := context.Background()
			const rounds = 3
			p, committed := crawlRounds(t, PipelineConfig{
				Seed: seed, Scale: 0.004, StoreDir: t.TempDir(), Workers: 2,
			}, rounds)
			if p.DeltaFallbacks != 0 {
				t.Fatalf("%d delta fallbacks; the delta route was not exercised", p.DeltaFallbacks)
			}
			for r := 0; r < rounds; r++ {
				// The pipeline must actually have taken the delta route.
				if r > 0 && !p.Store.HasBlob(core.DeltaNamespace(r)) {
					t.Fatalf("round %d: no %s", r, core.DeltaNamespace(r))
				}
				if _, err := core.BuildFrozen(ctx, p.Store, r); err != nil {
					t.Fatal(err)
				}
				if refrozen := roundBlobs(t, p.Store, r); !sameBlobs(refrozen, committed[r]) {
					t.Fatalf("round %d: delta-committed artifact differs from a freeze of the same store (%d vs %d snapshot bytes)",
						r, len(committed[r][0]), len(refrozen[0]))
				}
			}
			if latest, err := core.LatestFrozen(p.Store); err != nil || latest != rounds-1 {
				t.Fatalf("latest frozen = %d (%v), want %d", latest, err, rounds-1)
			}
		})
	}
}
