package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

type shardRec struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

// scanShardRecs streams one shard's records decoded into shardRec.
func scanShardRecs(s *Store, ns string, shard int, fn func(shardRec) error) error {
	return s.ScanShardContext(context.Background(), ns, shard, func(p []byte) error {
		var r shardRec
		if err := json.Unmarshal(p, &r); err != nil {
			return err
		}
		return fn(r)
	})
}

func writeSharded(t *testing.T, s *Store, ns string, k, n int) []shardRec {
	t.Helper()
	w, err := s.Writer(ns, k)
	if err != nil {
		t.Fatalf("Writer: %v", err)
	}
	var recs []shardRec
	for i := 0; i < n; i++ {
		r := shardRec{ID: fmt.Sprintf("s%d", i), N: i}
		recs = append(recs, r)
		if err := w.Append(r.ID, r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return recs
}

func TestShardForStableAndBounded(t *testing.T) {
	for _, k := range []int{1, 2, 7, 16} {
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("s%d", i)
			a, b := ShardFor(key, k), ShardFor(key, k)
			if a != b {
				t.Fatalf("ShardFor(%q,%d) unstable: %d vs %d", key, k, a, b)
			}
			if a < 0 || a >= k {
				t.Fatalf("ShardFor(%q,%d) = %d out of range", key, k, a)
			}
		}
	}
	if got := ShardFor("anything", 1); got != 0 {
		t.Fatalf("single shard must route to 0, got %d", got)
	}
	// The assignment must spread keys: with 1000 keys over 8 shards,
	// every shard should see some.
	counts := make([]int, 8)
	for i := 0; i < 1000; i++ {
		counts[ShardFor(fmt.Sprintf("s%d", i), 8)]++
	}
	for sh, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys", sh)
		}
	}
}

func TestShardedRoundTripAndScanOrder(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := writeSharded(t, s, "gen/items", 4, 200)

	k, err := s.ShardCount("gen/items")
	if err != nil || k != 4 {
		t.Fatalf("ShardCount = %d, %v; want 4", k, err)
	}

	// Per-shard scans: every record lands on its ShardFor shard, in
	// append order within the shard.
	var got []shardRec
	for shard := 0; shard < k; shard++ {
		prev := -1
		err := scanShardRecs(s, "gen/items", shard, func(r shardRec) error {
			if ShardFor(r.ID, k) != shard {
				t.Fatalf("record %s scanned from shard %d, routes to %d", r.ID, shard, ShardFor(r.ID, k))
			}
			if r.N <= prev {
				t.Fatalf("shard %d out of append order: %d after %d", shard, r.N, prev)
			}
			prev = r.N
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("ScanShardContext %d: %v", shard, err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, wrote %d", len(got), len(want))
	}

	// A plain Scan over the sharded namespace still sees every record.
	n := 0
	if err := s.Scan("gen/items", func([]byte) error { n++; return nil }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != len(want) {
		t.Fatalf("Scan saw %d records, want %d", n, len(want))
	}

	st, err := s.Stats("gen/items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != int64(len(want)) || st.Shards != 4 {
		t.Fatalf("Stats = %+v, want %d records over 4 shards", st, len(want))
	}
}

func TestShardedReopenAppendsAndGuards(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeSharded(t, s, "gen/items", 3, 50)

	// Wrong shard count on reopen is rejected, K=1 included.
	for _, k := range []int{1, 5} {
		if _, err := s.Writer("gen/items", k); err == nil {
			t.Fatalf("reopening 3 shards with %d must fail", k)
		}
	}

	// Same count appends more records, visible after a fresh open.
	writeSharded(t, s, "gen/items", 3, 50)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s2.Stats("gen/items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 100 {
		t.Fatalf("after reopen+append Stats.Records = %d, want 100", st.Records)
	}
}

// shardPayloads returns every shard's committed payloads, in scan order.
func shardPayloads(t *testing.T, s *Store, ns string) [][]string {
	t.Helper()
	k, err := s.ShardCount(ns)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, k)
	for shard := range out {
		if err := s.ScanShardContext(context.Background(), ns, shard, func(p []byte) error {
			out[shard] = append(out[shard], string(p))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestStoreShapeInvariance: at every K, ScanShardContext(i) yields exactly the
// records whose key routes to i, in append order; Scan yields the shards
// concatenated; reopen + append keeps both.
func TestStoreShapeInvariance(t *testing.T) {
	for _, k := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s.SegmentBytes = 256 // several segments per shard
			want := make([][]string, k)
			write := func(s *Store, from, to int) {
				w, err := s.Writer("gen/items", k)
				if err != nil {
					t.Fatal(err)
				}
				for i := from; i < to; i++ {
					key := fmt.Sprintf("s%d", i)
					payload := fmt.Sprintf(`{"id":%q,"n":%d}`, key, i)
					if err := w.AppendRaw(key, []byte(payload)); err != nil {
						t.Fatal(err)
					}
					want[ShardFor(key, k)] = append(want[ShardFor(key, k)], payload)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			check := func(s *Store, stage string) {
				t.Helper()
				if got := shardPayloads(t, s, "gen/items"); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: per-shard records differ from ShardFor routing in append order", stage)
				}
				var all []string
				if err := s.Scan("gen/items", func(p []byte) error {
					all = append(all, string(p))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(all, slices.Concat(want...)) {
					t.Fatalf("%s: Scan is not the shards concatenated", stage)
				}
				for shard, recs := range want {
					if len(recs) == 0 {
						t.Fatalf("%s: shard %d empty; the check is vacuous", stage, shard)
					}
				}
			}
			write(s, 0, 150)
			check(s, "first write")
			s, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s.SegmentBytes = 256
			write(s, 150, 300)
			check(s, "reopen + append")
			if st, _ := s.Stats("gen/items"); st.Shards != k || st.Records != 300 {
				t.Fatalf("after reopen + append Stats = %+v, want %d shards, 300 records", st, k)
			}
		})
	}
}

// TestLegacyNamespaceReadsAsSingleShard: a manifest written before every
// namespace had shards lists its segments at the namespace level, with
// the files directly in the namespace directory. It folds into one shard
// at load: it reads as K=1, appends land in shard-000/ after the legacy
// segment, a K=2 writer is refused, and Open's sweep keeps the legacy
// file while it is listed.
func TestLegacyNamespaceReadsAsSingleShard(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, nsDir("old/ns")), 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(nsDir("old/ns"), "seg-000000.csg")
	sw, err := newSegmentWriter(filepath.Join(dir, legacy))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf(`{"id":"s%d","n":%d}`, i, i)
		if err := sw.append([]byte(p)); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	records, size, err := sw.seal()
	if err != nil {
		t.Fatal(err)
	}
	pre := fmt.Sprintf(`{"version":1,"namespaces":{"old/ns":{"segments":[{"file":%q,"records":%d,"bytes":%d}],"next_seq":1}}}`,
		legacy, records, size)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(pre), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, legacy)); err != nil {
		t.Fatalf("Open's sweep removed the listed legacy segment: %v", err)
	}
	if st, err := s.Stats("old/ns"); err != nil || st.Shards != 1 || st.Records != 10 {
		t.Fatalf("legacy Stats = %+v, %v; want 1 shard, 10 records", st, err)
	}
	if got := shardPayloads(t, s, "old/ns"); !reflect.DeepEqual(got, [][]string{want}) {
		t.Fatalf("legacy namespace reads as %v", got)
	}
	if _, err := s.Writer("old/ns", 2); err == nil {
		t.Fatal("a K=2 writer on a K=1 legacy namespace must be refused")
	}
	w, err := s.Writer("old/ns", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		p := fmt.Sprintf(`{"id":"s%d","n":%d}`, i, i)
		if err := w.AppendRaw(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, shardDir("old/ns", 0), "seg-000001.csg")); err != nil {
		t.Fatalf("the K=1 append did not land in shard-000/ at the legacy NextSeq: %v", err)
	}
	// The commit stored the folded form, and a fresh open still reads both
	// segments in order without sweeping the legacy one.
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := shardPayloads(t, s, "old/ns"); !reflect.DeepEqual(got, [][]string{want}) {
		t.Fatalf("after append + reopen the namespace reads as %v", got)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var disk manifest
	if err := json.Unmarshal(raw, &disk); err != nil {
		t.Fatal(err)
	}
	if info := disk.Namespaces["old/ns"]; info.Segments != nil || info.NextSeq != 0 || len(info.Shards) != 1 {
		t.Fatalf("committed manifest still carries the legacy layout: %s", raw)
	}
}

// A shard-to-shard copy appends by shard index; an aborted one commits
// nothing, leaves no segment file behind and frees the writer slot.
func TestAppendRawToCopiesShardsAndAbortCommitsNothing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SegmentBytes = 256 // several sealed-but-uncommitted segments per shard
	const k = 4
	want := writeSharded(t, s, "gen/items", k, 200)
	copyTo := func(ns string) *Writer {
		w, err := s.Writer(ns, k)
		if err != nil {
			t.Fatal(err)
		}
		for shard := 0; shard < k; shard++ {
			err := s.ScanShardContext(context.Background(), "gen/items", shard, func(p []byte) error { return w.AppendRawTo(shard, p) })
			if err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	w := copyTo("copy/items")
	if err := w.AppendRawTo(k, []byte(`{}`)); err == nil {
		t.Fatal("append to shard k of k must fail")
	}
	w.Abort()
	w.Abort() // idempotent
	if err := w.AppendRawTo(0, []byte(`{}`)); err == nil {
		t.Fatal("append after abort must fail")
	}
	for _, ns := range s.Namespaces() {
		if ns == "copy/items" {
			t.Fatal("aborted writer committed its namespace")
		}
	}
	left, _ := filepath.Glob(filepath.Join(s.dir, shardDir("copy/items", 0), "*"))
	if len(left) != 0 {
		t.Fatalf("aborted writer left segment files: %v", left)
	}
	if err := copyTo("copy/items").Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for shard := 0; shard < k; shard++ {
		err := scanShardRecs(s, "copy/items", shard, func(r shardRec) error {
			if ShardFor(r.ID, k) != shard {
				t.Errorf("record %s copied to shard %d, key routes to %d", r.ID, shard, ShardFor(r.ID, k))
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n != len(want) {
		t.Fatalf("copy holds %d records, want %d", n, len(want))
	}
}

func TestSweepRemovesUncommittedShardSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeSharded(t, s, "gen/items", 2, 20)

	// Simulate a crash: an orphan segment file in a shard directory that
	// never made it into the manifest.
	orphan := filepath.Join(dir, shardDir("gen/items", 1), "seg-000099.csg")
	if err := os.WriteFile(orphan, []byte("CSCSEG01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan shard segment survived the sweep")
	}
	// Committed segments survive.
	st, err := s.Stats("gen/items")
	if err != nil || st.Records != 20 {
		t.Fatalf("committed records damaged by sweep: %+v, %v", st, err)
	}
}

func TestScanAsContextCancels(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSharded(t, s, "gen/items", 2, 50)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err = ScanAsContext(ctx, s, "gen/items", func(r shardRec) error {
		n++
		if n == 5 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatal("canceled scan must return an error")
	}
	if n > 6 {
		t.Fatalf("scan ran %d records past cancellation", n)
	}
}
