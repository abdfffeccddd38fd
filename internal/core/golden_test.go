package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/snapshot"
	"crowdscope/internal/store"
)

// Golden digests of the committed blobs, per fixture: the snapshot
// artifact, the index blob, and the snapshot artifact as it was written
// while it still stored the investment graph (its g.* sections). The
// index and graph-carrying digests were recorded at commit 01320e1 —
// while BuildFrozen still routed K=1 stores through the dataflow joins +
// FreezeBipartite(BuildInvestorGraph) and K>1 stores through the
// per-shard joins + the CSR kernel — before those routes were collapsed
// into one; the snapshot digests were re-pinned when the graph sections
// were retired. They are what "same bytes on duplicate-free stores"
// means: any change to the loader, the row functions, the CSR kernel or
// the codecs that moves an artifact byte fails here.
var goldenDigests = map[string]struct{ snap, idx, withGraph string }{
	// GenerateTo(seed 99, K=4) → IngestGenerated, by world scale.
	"gen-64": {
		"49f29ba0700ed82082c4b44cdfbfd74d80f06e06fc889692003c7a19b108dc7b",
		"84d7bd7f501ced4fe717434d09180994a0a3435d78113f30b1d62a5f905541cd",
		"2ae5b4f357ff2e4ec4b7a721baee965b0b8a9711bf5d957e579561a047fc44cc",
	},
	"gen-512": {
		"03210fbfb4f53a548daa592f8489a58b56911474227e9100984cff93eafeada8",
		"87a07046af8383d3ed21bdc870efcf3f6e881b5530117941aebaf2e56c4bb6eb",
		"caad6073a0ec0c0634a72b2dd042ade9d794ec53d85b3798e82215e0e59c0ba8",
	},
	"gen-4096": {
		"63eb9ec6bb6524fe07449bdab683ab696cae37802886845d0b16dc37ecc10580",
		"d4eb1a0aa141fd5c34aab9cf10e13decb1120b4050d67f80b27c665004aa0588",
		"e97bc02bf93af69dadd9d1bc838a26a892ea2555ce8a672db7f7c64e6c0f5e17",
	},
	// The package fixture: seed 31, scale 0.02, crawled over HTTP into
	// an unsharded (K=1) store.
	"fixture": {
		"5f891dbe40b621ace32e61b516432801205a43aad698dbd5370e2af6aabf7498",
		"04795b7984bd36aacb4646bcbf0c5650652a06694ee80fc8b9dc5675125ac010",
		"29e8b10e768d3fd5851e412e44e08fc2af4181666c83159b78922b16a7110b83",
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

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// eachGoldenFixture freezes every golden fixture's snapshot 0 and
// hands fn its committed snapshot and index blobs.
func eachGoldenFixture(t *testing.T, fn func(t *testing.T, key string, snapBlob, idxBlob []byte)) {
	for _, tc := range shardedFixtures {
		t.Run("gen-"+tc.name, func(t *testing.T) {
			st := generatedStore(t, tc.scale, 4)
			if _, err := BuildFrozen(context.Background(), st, 0); err != nil {
				t.Fatal(err)
			}
			snapBlob, idxBlob := frozenBlobs(t, st, 0)
			fn(t, "gen-"+tc.name, snapBlob, idxBlob)
		})
	}
	t.Run("fixture", func(t *testing.T) {
		buildFixtureFrozen(t)
		snapBlob, idxBlob := frozenBlobs(t, fixStore, 0)
		fn(t, "fixture", snapBlob, idxBlob)
	})
}

// encodeWithGraphSections encodes fs the way EncodeFrozen did while
// the artifact stored the graph: the row columns, then the graph's
// label tables and CSR arrays as g.* sections.
func encodeWithGraphSections(tb testing.TB, fs *FrozenSnapshot) []byte {
	tb.Helper()
	e := snapshot.NewEncoder()
	e.Int64s("meta.snapshot", []int64{int64(fs.Snapshot)})
	companyColumns.encode(e, "co", fs.Companies)
	investorColumns.encode(e, "inv", fs.Investors)
	g := fs.Graph
	csr := func(n int, label func(int32) string, row func(int32) []int32) ([]string, []int64, []int32) {
		labels, offsets, targets := make([]string, n), make([]int64, n+1), []int32{}
		for i := int32(0); int(i) < n; i++ {
			labels[i], offsets[i] = label(i), int64(len(targets))
			targets = append(targets, row(i)...)
		}
		offsets[n] = int64(len(targets))
		return labels, offsets, targets
	}
	left, fwdOff, fwdTgt := csr(g.NumLeft(), g.LeftLabel, g.Fwd)
	right, revOff, revTgt := csr(g.NumRight(), g.RightLabel, g.Rev)
	e.Strings("g.left", left)
	e.Strings("g.right", right)
	e.Int64s("g.fwd.offsets", fwdOff)
	e.Int32s("g.fwd.targets", fwdTgt)
	e.Int64s("g.rev.offsets", revOff)
	e.Int32s("g.rev.targets", revTgt)
	data, err := e.Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestFrozenGoldenDigests pins the artifact bytes of every
// duplicate-free fixture, K=4 and K=1.
func TestFrozenGoldenDigests(t *testing.T) {
	eachGoldenFixture(t, func(t *testing.T, key string, snapBlob, idxBlob []byte) {
		want := goldenDigests[key]
		if got := sha(snapBlob); got != want.snap {
			t.Fatalf("%s: snapshot bytes moved: got %s, want %s", key, got, want.snap)
		}
		if got := sha(idxBlob); got != want.idx {
			t.Fatalf("%s: index bytes moved: got %s, want %s", key, got, want.idx)
		}
	})
}

// TestDecodeFrozenReadsGraphSections is the compatibility check for
// stores written while the artifact still stored the graph: each
// fixture's decoded snapshot, re-encoded with the retired g.* sections,
// must reproduce such a store's artifact byte for byte — so the rebuilt
// graph is the one those stores carry — and that artifact must decode to
// the same snapshot, so they still serve.
func TestDecodeFrozenReadsGraphSections(t *testing.T) {
	eachGoldenFixture(t, func(t *testing.T, key string, snapBlob, _ []byte) {
		fs, err := DecodeFrozen(snapBlob)
		if err != nil {
			t.Fatal(err)
		}
		old := encodeWithGraphSections(t, fs)
		if got := sha(old); got != goldenDigests[key].withGraph {
			t.Fatalf("%s: re-encoded with graph sections, got %s, want %s", key, got, goldenDigests[key].withGraph)
		}
		oldFS, err := DecodeFrozen(old)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oldFS, fs) {
			t.Fatalf("%s: artifact with graph sections decodes to a different snapshot", key)
		}
	})
}
