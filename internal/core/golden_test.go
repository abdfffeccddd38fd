package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/store"
)

// Golden digests of the committed snapshot and index blobs, recorded at
// commit 01320e1 — while BuildFrozen still routed K=1 stores through the
// dataflow joins + FreezeBipartite(BuildInvestorGraph) and K>1 stores
// through the per-shard joins + ApplyBipartite — before those routes
// were collapsed into one. They are what "same bytes on duplicate-free
// stores" means: any change to the loader, the row functions, the CSR
// kernel or the codecs that moves an artifact byte fails here.
var goldenDigests = map[string][2]string{
	// GenerateTo(seed 99, K=4) → IngestGenerated, by world scale.
	"gen-64": {
		"2ae5b4f357ff2e4ec4b7a721baee965b0b8a9711bf5d957e579561a047fc44cc",
		"84d7bd7f501ced4fe717434d09180994a0a3435d78113f30b1d62a5f905541cd",
	},
	"gen-512": {
		"caad6073a0ec0c0634a72b2dd042ade9d794ec53d85b3798e82215e0e59c0ba8",
		"87a07046af8383d3ed21bdc870efcf3f6e881b5530117941aebaf2e56c4bb6eb",
	},
	"gen-4096": {
		"e97bc02bf93af69dadd9d1bc838a26a892ea2555ce8a672db7f7c64e6c0f5e17",
		"d4eb1a0aa141fd5c34aab9cf10e13decb1120b4050d67f80b27c665004aa0588",
	},
	// The package fixture: seed 31, scale 0.02, crawled over HTTP into
	// an unsharded (K=1) store.
	"fixture": {
		"29e8b10e768d3fd5851e412e44e08fc2af4181666c83159b78922b16a7110b83",
		"04795b7984bd36aacb4646bcbf0c5650652a06694ee80fc8b9dc5675125ac010",
	},
}

// shardedFixtures are the generated worlds the shard-count invariance
// and golden tests share: name → scale (≈64, ≈512, ≈4096 entities).
var shardedFixtures = []struct {
	name  string
	scale float64
}{
	{"64", 0.0001},
	{"512", 0.0007},
	{"4096", 0.0055},
}

// generatedStore streams the seed-99 world at the given scale into a
// fresh K-sharded store and ingests it as crawl snapshot 0.
func generatedStore(t testing.TB, scale float64, shards int) *store.Store {
	t.Helper()
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ecosystem.NewConfig(99, scale)
	cfg.Shards = shards
	if _, err := ecosystem.GenerateTo(ctx, st, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := crawler.IngestGenerated(ctx, st, 0); err != nil {
		t.Fatal(err)
	}
	return st
}

// frozenBlobs returns the committed snapshot and index blobs.
func frozenBlobs(t *testing.T, st *store.Store, snap int) (snapBlob, idxBlob []byte) {
	t.Helper()
	return mustBlob(t, st, FrozenNamespace(snap)), mustBlob(t, st, IndexNamespace(snap))
}

func checkGolden(t *testing.T, key string, st *store.Store) {
	t.Helper()
	snapBlob, idxBlob := frozenBlobs(t, st, 0)
	s, i := sha256.Sum256(snapBlob), sha256.Sum256(idxBlob)
	got := [2]string{hex.EncodeToString(s[:]), hex.EncodeToString(i[:])}
	if got != goldenDigests[key] {
		t.Fatalf("%s: artifact bytes moved\n got snapshot %s index %s\nwant snapshot %s index %s",
			key, got[0], got[1], goldenDigests[key][0], goldenDigests[key][1])
	}
}

// TestFrozenGoldenDigests pins the artifact bytes of every
// duplicate-free fixture, K=4 and K=1, to the digests recorded before
// the freeze routes were collapsed.
func TestFrozenGoldenDigests(t *testing.T) {
	ctx := context.Background()
	for _, tc := range shardedFixtures {
		t.Run("gen-"+tc.name, func(t *testing.T) {
			st := generatedStore(t, tc.scale, 4)
			if _, err := BuildFrozen(ctx, st, 0); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "gen-"+tc.name, st)
		})
	}
	t.Run("fixture", func(t *testing.T) {
		buildFixtureFrozen(t)
		checkGolden(t, "fixture", fixStore)
	})
}
