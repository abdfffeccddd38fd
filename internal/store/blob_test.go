package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestNsDirInjective(t *testing.T) {
	// The historical flattening mapped both "a/b" and the literal
	// namespace "a__b" to directory "a__b"; the escaped mapping must keep
	// them apart.
	if nsDir("a/b") == nsDir("a__b") {
		t.Fatalf("nsDir collides: %q vs %q", nsDir("a/b"), nsDir("a__b"))
	}
	// Standard crawl namespaces keep their historical directory names.
	if got := nsDir("angellist/startups"); got != "angellist__startups" {
		t.Fatalf("nsDir(angellist/startups) = %q", got)
	}
	seen := map[string]string{}
	for _, ns := range []string{
		"a/b", "a__b", "a_b", "a/_b", "a_/b", "a_x/b", "a/xb", "a__b/c", "a/b__c",
	} {
		dir := nsDir(ns)
		if prev, dup := seen[dir]; dup {
			t.Fatalf("nsDir maps both %q and %q to %q", prev, ns, dir)
		}
		seen[dir] = ns
	}
}

func TestNsDirAliasNamespacesCoexist(t *testing.T) {
	s := openTemp(t)
	write := func(ns string, id int) {
		w, err := s.Writer(ns, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append("", rec{ID: id, Name: ns}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("a/b", 1)
	write("a__b", 2)
	for ns, want := range map[string]int{"a/b": 1, "a__b": 2} {
		got, err := readAll[rec](s, ns)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].ID != want || got[0].Name != ns {
			t.Fatalf("namespace %q read %+v, want ID %d", ns, got, want)
		}
	}
}

func TestBlobRoundTrip(t *testing.T) {
	s := openTemp(t)
	data := []byte("frozen snapshot payload")
	if err := s.PutBlob("frozen/snap-000001", 7, data); err != nil {
		t.Fatal(err)
	}
	if !s.HasBlob("frozen/snap-000001") {
		t.Fatal("HasBlob = false after PutBlob")
	}
	got, format, err := s.GetBlob("frozen/snap-000001")
	if err != nil {
		t.Fatal(err)
	}
	if format != 7 || !bytes.Equal(got, data) {
		t.Fatalf("GetBlob = %q format %d", got, format)
	}

	// Replacement commits atomically and removes the old file.
	next := []byte("second artifact, different size")
	if err := s.PutBlob("frozen/snap-000001", 8, next); err != nil {
		t.Fatal(err)
	}
	got, format, err = s.GetBlob("frozen/snap-000001")
	if err != nil {
		t.Fatal(err)
	}
	if format != 8 || !bytes.Equal(got, next) {
		t.Fatalf("after replace GetBlob = %q format %d", got, format)
	}

	// Survives reopen.
	s2, err := Open(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = s2.GetBlob("frozen/snap-000001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, next) {
		t.Fatalf("after reopen GetBlob = %q", got)
	}
}

func TestBlobKindExclusive(t *testing.T) {
	s := openTemp(t)
	if err := s.PutBlob("frozen/snap-000001", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Writer("frozen/snap-000001", 1); err == nil {
		t.Fatal("Writer on a blob namespace must fail")
	}
	if err := s.Scan("frozen/snap-000001", func([]byte) error { return nil }); err == nil {
		t.Fatal("Scan on a blob namespace must fail")
	}

	w, err := s.Writer("angellist/startups", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("", rec{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlob("angellist/startups", 1, []byte("x")); err == nil {
		t.Fatal("PutBlob on a JSON namespace must fail")
	}
	if _, _, err := s.GetBlob("angellist/startups"); err == nil {
		t.Fatal("GetBlob on a JSON namespace must fail")
	}
}

func TestBlobStats(t *testing.T) {
	s := openTemp(t)
	data := []byte("0123456789")
	if err := s.PutBlob("frozen/snap-000000", 1, data); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats("frozen/snap-000000")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindBlob || st.Bytes != int64(len(data)) || st.Records != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func blobPath(t *testing.T, s *Store, ns string) string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	info := s.manifest.Namespaces[ns]
	if info == nil || info.Blob == nil {
		t.Fatalf("namespace %q holds no blob", ns)
	}
	return filepath.Join(s.dir, info.Blob.File)
}

func TestBlobCorruptionDetected(t *testing.T) {
	s := openTemp(t)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.PutBlob("frozen/snap-000002", 1, data); err != nil {
		t.Fatal(err)
	}
	path := blobPath(t, s, "frozen/snap-000002")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[1000] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.GetBlob("frozen/snap-000002")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCorrupt", err)
	}
}

func TestBlobTruncationDetected(t *testing.T) {
	s := openTemp(t)
	data := make([]byte, 4096)
	if err := s.PutBlob("frozen/snap-000003", 1, data); err != nil {
		t.Fatal(err)
	}
	path := blobPath(t, s, "frozen/snap-000003")
	if err := os.Truncate(path, 100); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.GetBlob("frozen/snap-000003")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated blob: err = %v, want ErrCorrupt", err)
	}
}

func TestBlobConcurrentPuts(t *testing.T) {
	s := openTemp(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			done <- s.PutBlob("frozen/snap-000009", 1, []byte(fmt.Sprintf("artifact-%d", i)))
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			// Losing the writer-slot race is allowed; corruption is not.
			t.Logf("put %d: %v", i, err)
		}
	}
	got, _, err := s.GetBlob("frozen/snap-000009")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("artifact-")) {
		t.Fatalf("GetBlob = %q", got)
	}
}
