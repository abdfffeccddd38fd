package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Blob namespaces hold a single binary artifact each — the frozen graph
// snapshots — alongside the append-only JSON namespaces. The manifest
// records the artifact's byte size, Castagnoli CRC32 and format version;
// GetBlob verifies all of them before returning bytes, so a truncated or
// bit-flipped artifact fails loudly instead of decoding garbage.

// PutBlob atomically replaces the namespace's binary artifact. The
// namespace must not already hold JSON segments. format is the artifact's
// self-declared format version, recorded in the manifest next to the
// checksum. Replacement is atomic at the manifest level: readers holding
// the old blob keep it (old files are removed only after commit).
func (s *Store) PutBlob(ns string, format int, data []byte) error {
	if s.readOnly {
		return fmt.Errorf("store: namespace %q: handle is read-only", ns)
	}
	if err := validNamespace(ns); err != nil {
		return err
	}
	s.mu.Lock()
	if s.writers[ns] {
		s.mu.Unlock()
		return fmt.Errorf("store: namespace %q already has an open writer", ns)
	}
	info := s.manifest.Namespaces[ns]
	if info != nil && info.Kind != KindBlob {
		s.mu.Unlock()
		return fmt.Errorf("store: namespace %q holds JSON segments, not a blob", ns)
	}
	var seq int64
	if info != nil {
		seq = info.NextSeq
	}
	// Reserve the writer slot so concurrent puts cannot interleave.
	s.writers[ns] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.writers, ns)
		s.mu.Unlock()
	}()

	if err := os.MkdirAll(filepath.Join(s.dir, nsDir(ns)), 0o755); err != nil {
		return err
	}
	rel := filepath.Join(nsDir(ns), fmt.Sprintf("blob-%06d.bin", seq))
	path := filepath.Join(s.dir, rel)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: create blob: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("store: write blob: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}

	s.mu.Lock()
	info = s.manifest.Namespaces[ns]
	if info == nil {
		info = &NamespaceInfo{Kind: KindBlob}
		s.manifest.Namespaces[ns] = info
	}
	oldBlob := info.Blob
	oldSeq := info.NextSeq
	info.Kind = KindBlob
	info.Blob = &BlobInfo{
		File:   rel,
		Bytes:  int64(len(data)),
		CRC32:  crc32.Checksum(data, castagnoli),
		Format: format,
	}
	info.NextSeq = seq + 1
	if err := s.manifest.commit(s.dir); err != nil {
		info.Blob = oldBlob
		info.NextSeq = oldSeq
		s.mu.Unlock()
		os.Remove(path)
		return err
	}
	s.mu.Unlock()
	if oldBlob != nil && oldBlob.File != rel {
		os.Remove(filepath.Join(s.dir, oldBlob.File))
	}
	return nil
}

// GetBlob returns the namespace's committed binary artifact and its
// recorded format version, after verifying the manifest's byte length and
// CRC32 against the file. Integrity failures wrap ErrCorrupt.
func (s *Store) GetBlob(ns string) (data []byte, format int, err error) {
	s.mu.Lock()
	info := s.manifest.Namespaces[ns]
	if info == nil {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("store: unknown namespace %q: %w", ns, ErrNotExist)
	}
	if info.Kind != KindBlob || info.Blob == nil {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("store: namespace %q holds no binary blob", ns)
	}
	blob := *info.Blob
	s.mu.Unlock()

	raw, err := os.ReadFile(filepath.Join(s.dir, blob.File))
	if err != nil {
		return nil, 0, fmt.Errorf("store: read blob: %w", err)
	}
	if int64(len(raw)) != blob.Bytes {
		return nil, 0, fmt.Errorf("%w: %s: manifest expects %d bytes, found %d",
			ErrCorrupt, blob.File, blob.Bytes, len(raw))
	}
	if sum := crc32.Checksum(raw, castagnoli); sum != blob.CRC32 {
		return nil, 0, fmt.Errorf("%w: %s: CRC mismatch (manifest %08x, file %08x)",
			ErrCorrupt, blob.File, blob.CRC32, sum)
	}
	return raw, blob.Format, nil
}

// HasBlob reports whether the namespace holds a committed binary artifact.
func (s *Store) HasBlob(ns string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := s.manifest.Namespaces[ns]
	return info != nil && info.Kind == KindBlob && info.Blob != nil
}
