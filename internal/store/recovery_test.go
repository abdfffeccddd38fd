package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// crashFile plants a file exactly where a crashed write would have left
// it: created, possibly partially written, never committed.
func crashFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenSweepsManifestTmp(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	crashFile(t, tmp, []byte("{half a manif"))
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest tmp survived reopen: stat err = %v", err)
	}
}

func TestOpenSweepsCrashedPutBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlob("frozen/snap-000000", 1, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	// A crash between the blob file write and the manifest commit leaves
	// blob-000001.bin on disk with NextSeq still 1 — the exact O_EXCL
	// path the next PutBlob will try to create.
	orphan := filepath.Join(dir, nsDir("frozen/snap-000000"), "blob-000001.bin")
	crashFile(t, orphan, []byte("half-written artifact"))

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphaned blob survived reopen: stat err = %v", err)
	}
	if err := s.PutBlob("frozen/snap-000000", 1, []byte("replacement")); err != nil {
		t.Fatalf("PutBlob after crash recovery: %v", err)
	}
	data, _, err := s.GetBlob("frozen/snap-000000")
	if err != nil || string(data) != "replacement" {
		t.Fatalf("GetBlob = %q, %v", data, err)
	}
}

func TestOpenSweepsCrashedWriterSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Writer("ns", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append("", rec{ID: i}); err != nil {
			t.Fatal(err)
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A Writer creates its next segment at NextSeq before committing; a
	// crash right after that write strands the file at the path the next
	// Writer will reserve with O_EXCL.
	s.mu.Lock()
	seq := s.manifest.Namespaces["ns"].Shards[0].NextSeq
	s.mu.Unlock()
	orphan := filepath.Join(dir, shardDir("ns", 0), segmentName(seq))
	crashFile(t, orphan, []byte(segmentMagic))

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphaned segment survived reopen: stat err = %v", err)
	}
	w, err = s.Writer("ns", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("", rec{ID: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("append after crash recovery: %v", err)
	}
	got, err := readAll[rec](s, "ns")
	if err != nil || len(got) != 11 {
		t.Fatalf("readAll after recovered append = %d recs, %v", len(got), err)
	}
}

func TestOpenSweepKeepsCommittedAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Writer("ns", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("", rec{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "NOTES.txt")
	crashFile(t, foreign, []byte("not ours to delete"))

	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("sweep removed a foreign file: %v", err)
	}
	got, err := readAll[rec](s, "ns")
	if err != nil || len(got) != 1 {
		t.Fatalf("committed data lost after sweep: %d recs, %v", len(got), err)
	}
}

func TestScanMissingSegmentTypedError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Writer("ns", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("", rec{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	segFile := s.manifest.Namespaces["ns"].Shards[0].Segments[0].File
	s.mu.Unlock()
	if err := os.Remove(filepath.Join(dir, segFile)); err != nil {
		t.Fatal(err)
	}
	err = s.Scan("ns", func([]byte) error { return nil })
	if !errors.Is(err, ErrSegmentMissing) {
		t.Fatalf("Scan err = %v, want ErrSegmentMissing in the %%w chain", err)
	}
	if !strings.Contains(err.Error(), segFile) {
		t.Fatalf("error %q does not name the missing segment path", err)
	}
}

// TestFailedCommitLeavesNoPhantomNamespace: a directory planted at the
// manifest's temp path fails every commit. A failed first commit must
// not leave the namespace it would have created behind — not in
// Namespaces, not as a shard count a later writer must match, not as an
// empty entry the next good commit writes to disk — and a failed commit
// of an existing namespace restores its NextSeq.
func TestFailedCommitLeavesNoPhantomNamespace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	appendN := func(w *Writer, from, n int) {
		for i := from; i < from+n; i++ {
			if err := w.Append(fmt.Sprint("k", i), rec{ID: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	absent := func(ns string) {
		t.Helper()
		if slices.Contains(s.Namespaces(), ns) {
			t.Fatalf("failed commit left %q in Namespaces()", ns)
		}
		if k, err := s.ShardCount(ns); err == nil {
			t.Fatalf("failed commit left %q with %d shards", ns, k)
		}
	}

	// A failed Flush keeps the writer and its sealed segments: once the
	// fault clears, the retry commits exactly the appended records.
	w, err := s.Writer("a/b", 4)
	if err != nil {
		t.Fatal(err)
	}
	appendN(w, 0, 40)
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.flush(); err == nil {
		t.Fatal("Flush succeeded with the manifest temp path blocked")
	}
	absent("a/b")
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	got, err := readAll[rec](s, "a/b")
	if err != nil || len(got) != 40 {
		t.Fatalf("retry committed %d records (%v), want 40", len(got), err)
	}

	// A failed Close commits nothing and removes its segments, so another
	// writer may create the namespace at a different K.
	w, err = s.Writer("c/d", 4)
	if err != nil {
		t.Fatal(err)
	}
	appendN(w, 0, 40)
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close succeeded with the manifest temp path blocked")
	}
	absent("c/d")
	if left, _ := filepath.Glob(filepath.Join(dir, nsDir("c/d"), "*", "seg-*.csg")); len(left) != 0 {
		t.Fatalf("failed Close left segment files: %v", left)
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	w, err = s.Writer("c/d", 2)
	if err != nil {
		t.Fatalf("a writer at another K after the failed first commit: %v", err)
	}
	appendN(w, 100, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A failed commit of an existing namespace restores its NextSeq.
	s.mu.Lock()
	before := *s.manifest.Namespaces["c/d"].Shards[0]
	s.mu.Unlock()
	w, err = s.Writer("c/d", 2)
	if err != nil {
		t.Fatal(err)
	}
	appendN(w, 200, 20)
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close succeeded with the manifest temp path blocked")
	}
	s.mu.Lock()
	after := *s.manifest.Namespaces["c/d"].Shards[0]
	s.mu.Unlock()
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("failed commit changed shard 0 from %+v to %+v", before, after)
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}

	// What is on disk is exactly what committed.
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Namespaces(); !slices.Equal(got, []string{"a/b", "c/d"}) {
		t.Fatalf("namespaces on disk = %v", got)
	}
	for ns, want := range map[string]NamespaceStats{"a/b": {Records: 40, Shards: 4}, "c/d": {Records: 5, Shards: 2}} {
		st, err := s.Stats(ns)
		if err != nil || st.Records != want.Records || st.Shards != want.Shards {
			t.Fatalf("%s: Stats = %+v, %v; want %d records over %d shards", ns, st, err, want.Records, want.Shards)
		}
	}
}

func TestScanContextHonoursCancellation(t *testing.T) {
	s := openTemp(t)
	w, err := s.Writer("ns", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Append("", rec{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err = s.ScanContext(ctx, "ns", func([]byte) error {
		seen++
		if seen == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanContext err = %v, want context.Canceled", err)
	}
	if seen != 3 {
		t.Fatalf("scan streamed %d records past cancellation", seen)
	}
}
