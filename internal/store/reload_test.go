package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReloadSeesExternalCommits models the crawler-writes/server-reads
// deployment: two handles on one directory, where commits through one
// handle are invisible to the other until it reloads its manifest.
func TestReloadSeesExternalCommits(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Commit a blob and a JSON record through the writer handle.
	if err := writer.PutBlob("frozen/snap-000000", 1, []byte("artifact")); err != nil {
		t.Fatal(err)
	}
	w, err := writer.Writer("angellist/users", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("", map[string]string{"id": "u1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The reader handle opened before the commits: nothing visible.
	if reader.HasBlob("frozen/snap-000000") {
		t.Fatal("reader saw an externally committed blob without Reload")
	}
	if len(reader.Namespaces()) != 0 {
		t.Fatalf("reader namespaces before Reload: %v", reader.Namespaces())
	}

	if err := reader.Reload(); err != nil {
		t.Fatal(err)
	}
	if !reader.HasBlob("frozen/snap-000000") {
		t.Fatal("reader misses the blob after Reload")
	}
	data, format, err := reader.GetBlob("frozen/snap-000000")
	if err != nil {
		t.Fatal(err)
	}
	if format != 1 || !bytes.Equal(data, []byte("artifact")) {
		t.Fatalf("reloaded blob = format %d, %q", format, data)
	}
	if got := len(reader.Namespaces()); got != 2 {
		t.Fatalf("reader sees %d namespaces after Reload, want 2 (%v)", got, reader.Namespaces())
	}
}

// TestOpenReadOnly: a read-only handle rejects every mutation and — the
// reason it exists — skips the crash-debris sweep, so opening a store
// that another process is mid-commit into does not delete the writer's
// in-flight *.tmp manifest or its uncommitted data files.
func TestOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutBlob("frozen/snap-000000", 1, []byte("committed")); err != nil {
		t.Fatal(err)
	}

	// Plant the files a concurrent writer would have in flight: a
	// pending manifest commit and an uncommitted blob file.
	inflight := []string{
		filepath.Join(dir, "MANIFEST.json.tmp"),
		filepath.Join(dir, nsDir("frozen/snap-000001"), "blob-000000.bin"),
	}
	if err := os.MkdirAll(filepath.Dir(inflight[1]), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range inflight {
		if err := os.WriteFile(path, []byte("in flight"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range inflight {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("read-only open swept the concurrent writer's %s: %v", filepath.Base(path), err)
		}
	}
	if !ro.HasBlob("frozen/snap-000000") {
		t.Fatal("read-only handle cannot read committed data")
	}

	if _, err := ro.Writer("angellist/users", 1); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("Writer on read-only handle: %v", err)
	}
	if err := ro.PutBlob("frozen/snap-000002", 1, []byte("x")); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("PutBlob on read-only handle: %v", err)
	}

	// A writing Open still sweeps the same files (the crash-recovery
	// behavior the read-only path opts out of).
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, path := range inflight {
		if _, err := os.Stat(path); err == nil {
			t.Fatalf("writing open left orphan %s in place", filepath.Base(path))
		}
	}
}

// TestReloadRefusedWithOpenWriters: a reload would race the open
// writer's pending manifest commit, so the handle must refuse it and
// keep its current view intact.
func TestReloadRefusedWithOpenWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlob("frozen/snap-000000", 1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	w, err := s.Writer("angellist/users", 1)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Reload()
	if err == nil || !strings.Contains(err.Error(), "open writers") {
		t.Fatalf("Reload with an open writer: %v", err)
	}
	// The refusal is a typed, benign condition: callers that poll Reload
	// opportunistically (the serving layer's refresh) distinguish it from
	// real manifest failures with errors.Is instead of string matching.
	if !errors.Is(err, ErrWritersOpen) {
		t.Fatalf("Reload refusal is not ErrWritersOpen: %v", err)
	}
	if !errors.Is(fmt.Errorf("wrapped: %w", err), ErrWritersOpen) {
		t.Fatal("ErrWritersOpen lost through wrapping")
	}
	if !s.HasBlob("frozen/snap-000000") {
		t.Fatal("refused Reload disturbed the current manifest view")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatalf("Reload after writer close: %v", err)
	}
}
