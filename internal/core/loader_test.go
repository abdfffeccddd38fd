package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/store"
)

// matchesReference reports whether the artifact decodes to the store's
// rows and the graph graph.FromRows builds over them, which graph's
// TestFromRowsMatchesBuilder holds to the reference builder.
func matchesReference(t *testing.T, st *store.Store, snap int, artifact []byte) bool {
	t.Helper()
	companies, err := LoadCompanies(context.Background(), st, snap)
	if err != nil {
		t.Fatal(err)
	}
	investors, err := LoadInvestors(context.Background(), st, snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrozen(artifact)
	if err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(got, &FrozenSnapshot{
		Snapshot:  snap,
		Companies: companies,
		Investors: investors,
		Graph:     investorGraph(investors),
	})
}

// TestShardedFreezeEquivalence is shard-count invariance: the same
// generated world stored with K = 1, 4 and 8 shards freezes to the same
// snapshot and index bytes, across world sizes (≈64, ≈512, ≈4096
// entities), and those bytes carry the store rows' graph. (TestFrozenGoldenDigests pins the K=4 bytes themselves.)
func TestShardedFreezeEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range shardedFixtures {
		t.Run(tc.name, func(t *testing.T) {
			var wantSnap, wantIdx []byte
			for _, k := range []int{1, 4, 8} {
				st := generatedStore(t, tc.scale, k)
				if got, err := st.ShardCount(crawler.NSStartups); err != nil || got != k {
					t.Fatalf("store has %d shards (%v), want %d", got, err, k)
				}
				snap, err := BuildFrozen(ctx, st, -1)
				if err != nil {
					t.Fatalf("K=%d: %v", k, err)
				}
				gotSnap, gotIdx := frozenBlobs(t, st, snap)
				if wantSnap == nil {
					wantSnap, wantIdx = gotSnap, gotIdx
					fs, err := LoadFrozen(st, snap)
					if err != nil {
						t.Fatal(err)
					}
					if len(fs.Companies) == 0 || len(fs.Investors) == 0 {
						t.Fatal("invariance vacuous: empty snapshot")
					}
					if !matchesReference(t, st, snap, gotSnap) {
						t.Fatal("committed artifact differs from the store rows' snapshot")
					}
					continue
				}
				if !bytes.Equal(gotSnap, wantSnap) || !bytes.Equal(gotIdx, wantIdx) {
					t.Fatalf("K=%d artifact differs from K=1 (%d vs %d snapshot bytes)", k, len(gotSnap), len(wantSnap))
				}
			}
		})
	}
}

// TestShardedFreezeOnLegacyStore runs the shard-at-a-time loader over
// the unsharded HTTP-crawled fixture store — no shard directories, the
// single-shard degenerate case. The committed bytes must carry the
// store rows' graph (TestFrozenGoldenDigests pins them to the
// digest recorded when such stores still froze through the dataflow
// joins).
func TestShardedFreezeOnLegacyStore(t *testing.T) {
	if k, err := fixStore.ShardCount(crawler.NSStartups); err != nil || k != 1 {
		t.Fatalf("fixture store has %d shards (%v), want an unsharded store", k, err)
	}
	buildFixtureFrozen(t)
	snapBlob, _ := frozenBlobs(t, fixStore, 0)
	if !matchesReference(t, fixStore, 0, snapBlob) {
		t.Fatal("legacy-store artifact differs from the store rows' snapshot")
	}
}

// TestStoreLoaderMatchesMergeCrawl is feeder equivalence: the rows the
// store loader derives from a round's persisted records equal the rows
// mergeCrawl derives from the same round in memory — the property that
// lets a delta computed from the in-memory crawl stand in for a
// re-freeze of the store.
func TestStoreLoaderMatchesMergeCrawl(t *testing.T) {
	ctx := context.Background()
	want := mergeCrawl(fixCrawl, 0)
	companies, err := LoadCompanies(ctx, fixStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	investors, err := LoadInvestors(ctx, fixStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(companies) == 0 || len(investors) == 0 {
		t.Fatal("equivalence vacuous: empty fixture")
	}
	if !reflect.DeepEqual(companies, want.Companies) {
		t.Fatal("store loader and mergeCrawl disagree on company rows")
	}
	if !reflect.DeepEqual(investors, want.Investors) {
		t.Fatal("store loader and mergeCrawl disagree on investor rows")
	}
}

// staleRound returns a copy of the round in which every value the
// merged rows read is different, entity for entity: the shape of a
// re-crawled round's earlier visit. No entity is added or removed.
func staleRound(final *crawler.Snapshot) *crawler.Snapshot {
	stale := copyRound(final)
	for id, s := range stale.Startups {
		s.Name += " (old)"
		s.Raising = !s.Raising
		if tw := stale.Twitter[id]; tw != nil {
			tw.FollowersCount++
			tw.StatusesCount++
		}
		if fb := stale.Facebook[id]; fb != nil {
			fb.Likes++
		}
		if cb := stale.CrunchBase[id]; cb != nil {
			cb.Rounds = append(cb.Rounds, cb.Rounds...)
		}
	}
	for _, u := range stale.Users {
		if len(u.Investments) == 0 {
			// Was an investor on the earlier visit, is not on the last.
			u.Investments = []string{"s-0000"}
		} else {
			u.Investments = u.Investments[:len(u.Investments)-1]
		}
		u.FollowsStartups = append(u.FollowsStartups, "s-0001")
	}
	return stale
}

// shardCrawlNamespaces creates the five crawl namespaces at k shards,
// as a sharded ingest leaves them: a small generated world ingested as
// snapshot 1, which a freeze of snapshot 0 never reads. Persist keeps an
// existing namespace's shard count, so a round it then writes routes
// over the same k shards. At k = 1 it leaves the store empty.
func shardCrawlNamespaces(t *testing.T, st *store.Store, k int) {
	t.Helper()
	if k == 1 {
		return
	}
	ctx := context.Background()
	cfg := ecosystem.NewConfig(3, 0.001)
	cfg.Shards = k
	if _, err := ecosystem.GenerateTo(ctx, st, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := crawler.IngestGenerated(ctx, st, 1); err != nil {
		t.Fatal(err)
	}
	for _, ns := range []string{crawler.NSStartups, crawler.NSUsers, crawler.NSCrunchBase, crawler.NSFacebook, crawler.NSTwitter} {
		if got, err := st.ShardCount(ns); err != nil || got != k {
			t.Fatalf("%s: %d shards (err %v), want %d", ns, got, err, k)
		}
	}
}

// TestRepersistedRoundFreezesAsLastPersist: a round persisted more than
// once — verbatim, or after an earlier visit that saw different values —
// freezes to the bytes of its last persist alone, at K=1 and K=4.
func TestRepersistedRoundFreezesAsLastPersist(t *testing.T) {
	ctx := context.Background()
	final := rawRound(rand.New(rand.NewSource(17)), 150)
	freeze := func(t *testing.T, shards int, persists ...*crawler.Snapshot) (snapBlob, idxBlob []byte) {
		t.Helper()
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		shardCrawlNamespaces(t, st, shards)
		for _, round := range persists {
			if err := crawler.Persist(ctx, st, round, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := BuildFrozen(ctx, st, 0); err != nil {
			t.Fatalf("BuildFrozen after %d persists: %v", len(persists), err)
		}
		return frozenBlobs(t, st, 0)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", shards), func(t *testing.T) {
			wantSnap, wantIdx := freeze(t, shards, final)
			for name, persists := range map[string][]*crawler.Snapshot{
				"verbatim":    {final, final},
				"stale-first": {staleRound(final), final},
			} {
				gotSnap, gotIdx := freeze(t, shards, persists...)
				if !bytes.Equal(gotSnap, wantSnap) || !bytes.Equal(gotIdx, wantIdx) {
					t.Errorf("%s: blobs differ from a single persist (%d vs %d snapshot bytes)", name, len(gotSnap), len(wantSnap))
				}
			}
			// The stale visit is not a no-op: alone it freezes differently.
			staleSnap, _ := freeze(t, shards, staleRound(final))
			if bytes.Equal(staleSnap, wantSnap) {
				t.Fatal("stale round freezes like the final one; test is vacuous")
			}
		})
	}
}
