package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"crowdscope/internal/ecosystem"
	pool "crowdscope/internal/parallel"
	"crowdscope/internal/store"
)

// typedIngest is the ingest the splice replaced, kept as the test's
// reference: decode the gen/* record, wrap it in the crawl record type
// with the snapshot tag, marshal. It returns the shard key as well.
var typedIngest = map[string]func(payload []byte, tag int) (key string, want []byte, err error){
	NSStartups: typedAs(func(r ecosystem.Startup, tag int) (string, any) {
		return r.ID, StartupRecord{Startup: r, Snapshot: tag}
	}),
	NSUsers: typedAs(func(r ecosystem.User, tag int) (string, any) {
		return r.ID, UserRecord{User: r, Snapshot: tag}
	}),
	NSCrunchBase: typedAugment[ecosystem.CrunchBaseProfile](),
	NSFacebook:   typedAugment[ecosystem.FacebookProfile](),
	NSTwitter:    typedAugment[ecosystem.TwitterProfile](),
}

func typedAs[In any](wrap func(In, int) (string, any)) func([]byte, int) (string, []byte, error) {
	return func(payload []byte, tag int) (string, []byte, error) {
		var in In
		if err := json.Unmarshal(payload, &in); err != nil {
			return "", nil, err
		}
		key, rec := wrap(in, tag)
		want, err := json.Marshal(rec)
		return key, want, err
	}
}

func typedAugment[T any]() func([]byte, int) (string, []byte, error) {
	return typedAs(func(r ecosystem.GenAugment[T], tag int) (string, any) {
		return r.StartupID, AugmentRecord[T]{StartupID: r.StartupID, Profile: r.Profile, Snapshot: tag}
	})
}

func shardPayloads(t *testing.T, st *store.Store, ns string, shard int) [][]byte {
	t.Helper()
	var out [][]byte
	err := st.ScanShardContext(context.Background(), ns, shard, func(p []byte) error {
		out = append(out, bytes.Clone(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIngestGeneratedIsTypedIdentity: the spliced crawl record is, byte
// for byte, the typed crawl record marshaled from the decoded gen/*
// record — in every namespace, shard by shard and in order, at several
// snapshot tags, with the shards copied by one worker and by four — and
// it sits in the shard its key routes to.
func TestIngestGeneratedIsTypedIdentity(t *testing.T) {
	defer pool.SetDefaultWorkers(0)
	ctx := context.Background()
	for _, tag := range []int{0, 3, 12} {
		t.Run(fmt.Sprintf("snapshot-%d", tag), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				pool.SetDefaultWorkers(workers)
				checkIngestIsTypedIdentity(t, ctx, tag, workers)
			}
		})
	}
}

// checkIngestIsTypedIdentity generates a fresh world, ingests it at the
// snapshot tag with the shards copied by the given number of workers,
// and compares every crawl record with its typed reference.
func checkIngestIsTypedIdentity(t *testing.T, ctx context.Context, tag, workers int) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SegmentBytes = 4 << 10 // several segments per shard
	cfg := ecosystem.NewConfig(99, 0.0007)
	cfg.Shards = 4
	gen, err := ecosystem.GenerateTo(ctx, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := IngestGenerated(ctx, st, tag)
	if err != nil {
		t.Fatal(err)
	}
	if want := gen.Startups + gen.Users + gen.CrunchBase + gen.Facebook + gen.Twitter; n != want || n == 0 {
		t.Fatalf("workers %d: ingested %d records, generation emitted %d", workers, n, want)
	}
	for _, p := range ingestPairs {
		from, to := p[0], p[1]
		if k, err := st.ShardCount(to); err != nil || k != cfg.Shards {
			t.Fatalf("workers %d: %s has %d shards (%v), want %d", workers, to, k, err, cfg.Shards)
		}
		for shard := 0; shard < cfg.Shards; shard++ {
			src, got := shardPayloads(t, st, from, shard), shardPayloads(t, st, to, shard)
			if len(src) != len(got) {
				t.Fatalf("workers %d: %s shard %d: %d records from %d", workers, to, shard, len(got), len(src))
			}
			for i := range src {
				key, want, err := typedIngest[to](src[i], tag)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[i], want) {
					t.Fatalf("workers %d: %s shard %d record %d:\n got %s\nwant %s", workers, to, shard, i, got[i], want)
				}
				if store.ShardFor(key, cfg.Shards) != shard {
					t.Fatalf("workers %d: %s: key %s sits in shard %d, routes to %d", workers, to, key, shard, store.ShardFor(key, cfg.Shards))
				}
			}
		}
	}
}

// TestIngestGeneratedRejectsNonObjects: a payload the snapshot tag
// cannot extend into a JSON object fails the ingest, and a failed
// ingest commits nothing and leaves the writer slot free.
func TestIngestGeneratedRejectsNonObjects(t *testing.T) {
	for i, bad := range []string{``, `}`, `{}`, `{ }`, `{,}`, `[1]`, `"x"`, `null`, `{"id":"s1"`, `{"id":"s1"} `, ` {"id":"s1"}`, `{1:2}`} {
		t.Run(fmt.Sprintf("case-%d", i), func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			w, err := st.Writer(ecosystem.NSGenStartups, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{`{"id":"s0","name":"ok"}`, bad} {
				if err := w.AppendRaw("s", []byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			n, err := IngestGenerated(context.Background(), st, 0)
			if err == nil || !strings.Contains(err.Error(), ecosystem.NSGenStartups) {
				t.Fatalf("ingest of %q: got %d records, error %v; want an error naming the namespace", bad, n, err)
			}
			if n != 0 || slices.Contains(st.Namespaces(), NSStartups) {
				t.Fatalf("failed ingest counted %d records, namespaces %v", n, st.Namespaces())
			}
			if w, err := st.Writer(NSStartups, 1); err != nil {
				t.Fatalf("writer slot still held after a failed ingest: %v", err)
			} else {
				w.Abort()
			}
		})
	}
}
