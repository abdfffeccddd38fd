package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

type shardRec struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

func writeSharded(t *testing.T, s *Store, ns string, k, n int) []shardRec {
	t.Helper()
	w, err := s.ShardedWriter(ns, k)
	if err != nil {
		t.Fatalf("ShardedWriter: %v", err)
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
		err := ScanShardAsContext(context.Background(), s, "gen/items", shard, func(r shardRec) error {
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
			t.Fatalf("ScanShard %d: %v", shard, err)
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

	// Wrong shard count on reopen is rejected.
	if _, err := s.ShardedWriter("gen/items", 5); err == nil {
		t.Fatal("reopening with a different shard count must fail")
	}
	// A legacy Writer cannot append to a sharded namespace.
	if _, err := s.Writer("gen/items"); err == nil {
		t.Fatal("Writer on a sharded namespace must fail")
	}
	// A ShardedWriter cannot take over a legacy namespace.
	w, err := s.Writer("legacy/items")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(shardRec{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShardedWriter("legacy/items", 2); err == nil {
		t.Fatal("ShardedWriter on a legacy namespace must fail")
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

func TestLegacyNamespaceReadsAsSingleShard(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Writer("old/ns")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(shardRec{ID: fmt.Sprintf("s%d", i), N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	k, err := s.ShardCount("old/ns")
	if err != nil || k != 1 {
		t.Fatalf("legacy ShardCount = %d, %v; want 1", k, err)
	}
	n := 0
	if err := s.ScanShard("old/ns", 0, func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("legacy shard 0 scan saw %d records, want 10", n)
	}
	if err := s.ScanShard("old/ns", 1, func([]byte) error { return nil }); err == nil {
		t.Fatal("scanning shard 1 of a legacy namespace must fail")
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
	copyTo := func(ns string) *ShardedWriter {
		w, err := s.ShardedWriter(ns, k)
		if err != nil {
			t.Fatal(err)
		}
		for shard := 0; shard < k; shard++ {
			err := s.ScanShard("gen/items", shard, func(p []byte) error { return w.AppendRawTo(shard, p) })
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
	left, _ := filepath.Glob(filepath.Join(s.Dir(), shardDir("copy/items", 0), "*"))
	if len(left) != 0 {
		t.Fatalf("aborted writer left segment files: %v", left)
	}
	if err := copyTo("copy/items").Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for shard := 0; shard < k; shard++ {
		err := ScanShardAsContext(context.Background(), s, "copy/items", shard, func(r shardRec) error {
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

func TestShardedCompactPreservesRecords(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SegmentBytes = 256 // force many small segments
	writeSharded(t, s, "gen/items", 3, 100)
	writeSharded(t, s, "gen/items", 3, 100) // second batch: more segments

	before, _ := s.Stats("gen/items")
	if before.Segments <= 3 {
		t.Fatalf("want many segments before compaction, got %d", before.Segments)
	}
	var wantIDs []string
	if err := s.Scan("gen/items", func(p []byte) error {
		wantIDs = append(wantIDs, string(append([]byte(nil), p...)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("gen/items"); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after, _ := s.Stats("gen/items")
	if after.Segments != 3 {
		t.Fatalf("after compaction want 3 segments (one per shard), got %d", after.Segments)
	}
	if after.Records != before.Records {
		t.Fatalf("compaction changed record count: %d -> %d", before.Records, after.Records)
	}
	var gotIDs []string
	if err := s.Scan("gen/items", func(p []byte) error {
		gotIDs = append(gotIDs, string(append([]byte(nil), p...)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(wantIDs)
	sort.Strings(gotIDs)
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("compaction lost records: %d vs %d", len(gotIDs), len(wantIDs))
	}
	for i := range gotIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("record %d differs after compaction", i)
		}
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
