package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"crowdscope/internal/leakcheck"
)

type rec struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
}

// readAll collects every committed record of a namespace into a slice.
func readAll[T any](s *Store, ns string) ([]T, error) {
	var out []T
	err := ScanAsContext(context.Background(), s, ns, func(rec T) error {
		out = append(out, rec)
		return nil
	})
	return out, err
}

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWriteReadRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	s := openTemp(t)
	w, err := s.Writer("angellist/startups", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Append("", rec{ID: i, Name: fmt.Sprint("co-", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll[rec](s, "angellist/startups")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("read %d records", len(got))
	}
	for i, r := range got {
		if r.ID != i || r.Name != fmt.Sprint("co-", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestVisibilityRequiresFlush(t *testing.T) {
	s := openTemp(t)
	w, _ := s.Writer("ns", 1)
	_ = w.Append("", rec{ID: 1})
	// Not yet committed: namespace should be unknown to readers.
	if err := s.Scan("ns", func([]byte) error { return nil }); err == nil {
		t.Fatal("expected unknown namespace before flush")
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := s.Scan("ns", func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("visible records = %d", n)
	}
	// Append more, flush again: both batches visible, in order.
	_ = w.Append("", rec{ID: 2})
	_ = w.Close()
	all, _ := readAll[rec](s, "ns")
	if len(all) != 2 || all[0].ID != 1 || all[1].ID != 2 {
		t.Fatalf("records = %+v", all)
	}
}

func TestWriterExclusive(t *testing.T) {
	s := openTemp(t)
	w, _ := s.Writer("ns", 1)
	if _, err := s.Writer("ns", 1); err == nil {
		t.Fatal("second writer should fail")
	}
	_ = w.Close()
	w2, err := s.Writer("ns", 1)
	if err != nil {
		t.Fatal("writer slot should free after close:", err)
	}
	_ = w2.Close()
}

func TestWriterCloseIdempotent(t *testing.T) {
	s := openTemp(t)
	w, _ := s.Writer("ns", 1)
	_ = w.Append("", rec{ID: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("second close should be nil:", err)
	}
	if err := w.Append("", rec{ID: 2}); err == nil {
		t.Fatal("append after close should fail")
	}
	if err := w.flush(); err == nil {
		t.Fatal("flush after close should fail")
	}
}

func TestInvalidNamespaces(t *testing.T) {
	s := openTemp(t)
	for _, ns := range []string{"", "a//b", "../etc", "sp ace", "semi;colon", "a/./b"} {
		if _, err := s.Writer(ns, 1); err == nil {
			t.Errorf("namespace %q accepted", ns)
		}
	}
	for _, ns := range []string{"ok", "angellist/startups", "a-b_c.d/e2"} {
		w, err := s.Writer(ns, 1)
		if err != nil {
			t.Errorf("namespace %q rejected: %v", ns, err)
			continue
		}
		_ = w.Close()
	}
}

func TestSegmentRotation(t *testing.T) {
	s := openTemp(t)
	s.SegmentBytes = 256 // force frequent rotation
	w, _ := s.Writer("ns", 1)
	for i := 0; i < 200; i++ {
		if err := w.Append("", rec{ID: i, Name: "padding-padding-padding"}); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Close()
	st, err := s.Stats("ns")
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	if st.Records != 200 {
		t.Fatalf("records = %d", st.Records)
	}
	all, _ := readAll[rec](s, "ns")
	for i, r := range all {
		if r.ID != i {
			t.Fatalf("order broken at %d: %+v", i, r)
		}
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	w, _ := s.Writer("ns", 1)
	for i := 0; i < 10; i++ {
		_ = w.Append("", rec{ID: i})
	}
	_ = w.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	all, err := readAll[rec](s2, "ns")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Fatalf("reopened records = %d", len(all))
	}
	// New writer continues the sequence without clobbering old segments.
	w2, err := s2.Writer("ns", 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = w2.Append("", rec{ID: 10})
	_ = w2.Close()
	all, _ = readAll[rec](s2, "ns")
	if len(all) != 11 || all[10].ID != 10 {
		t.Fatalf("after reopen+append: %d records", len(all))
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	w, _ := s.Writer("ns", 1)
	for i := 0; i < 50; i++ {
		_ = w.Append("", rec{ID: i, Name: "hello world"})
	}
	_ = w.Close()

	// Flip one payload byte in the middle of the segment.
	segs, _ := s.snapshot("ns")
	path := filepath.Join(dir, segs[0][0].File)
	raw, _ := os.ReadFile(path)
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err := s.Scan("ns", func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	w, _ := s.Writer("ns", 1)
	for i := 0; i < 50; i++ {
		_ = w.Append("", rec{ID: i})
	}
	_ = w.Close()
	segs, _ := s.snapshot("ns")
	path := filepath.Join(dir, segs[0][0].File)
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	err := s.Scan("ns", func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestRecordCountMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	w, _ := s.Writer("ns", 1)
	_ = w.Append("", rec{ID: 1})
	_ = w.Close()
	// Tamper with the manifest's record count.
	s.mu.Lock()
	s.manifest.Namespaces["ns"].Shards[0].Segments[0].Records = 99
	s.mu.Unlock()
	err := s.Scan("ns", func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestNamespacesListing(t *testing.T) {
	s := openTemp(t)
	for _, ns := range []string{"b/two", "a/one", "c"} {
		w, _ := s.Writer(ns, 1)
		_ = w.Append("", rec{ID: 1})
		_ = w.Close()
	}
	got := s.Namespaces()
	want := []string{"a/one", "b/two", "c"}
	if len(got) != 3 {
		t.Fatalf("namespaces = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("namespaces = %v, want %v", got, want)
		}
	}
}

func TestStatsUnknownNamespace(t *testing.T) {
	s := openTemp(t)
	if _, err := s.Stats("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestEmptyFlushIsNoop(t *testing.T) {
	s := openTemp(t)
	w, _ := s.Writer("ns", 1)
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Nothing committed: namespace stays unknown.
	if _, err := s.Stats("ns"); err == nil {
		t.Fatal("empty namespace should not be committed")
	}
}

func TestConcurrentWritersDistinctNamespaces(t *testing.T) {
	leakcheck.Check(t)
	s := openTemp(t)
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			ns := fmt.Sprint("ns", g)
			w, err := s.Writer(ns, 1)
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 500; i++ {
				if err := w.Append("", rec{ID: i}); err != nil {
					done <- err
					return
				}
			}
			done <- w.Close()
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 4; g++ {
		st, err := s.Stats(fmt.Sprint("ns", g))
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != 500 {
			t.Fatalf("ns%d records = %d", g, st.Records)
		}
	}
}

func TestScanCallbackErrorPropagates(t *testing.T) {
	s := openTemp(t)
	w, _ := s.Writer("ns", 1)
	for i := 0; i < 10; i++ {
		_ = w.Append("", rec{ID: i})
	}
	_ = w.Close()
	sentinel := errors.New("stop")
	n := 0
	err := s.Scan("ns", func([]byte) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times", n)
	}
}
