package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// manifestName is the committed manifest; commits write a temp file and
// rename over it, which is atomic on POSIX filesystems.
const manifestName = "MANIFEST.json"

// SegmentInfo describes one sealed, immutable segment file.
type SegmentInfo struct {
	// File is the segment filename relative to the store root.
	File string `json:"file"`
	// Records is the number of records sealed into the segment.
	Records int64 `json:"records"`
	// Bytes is the total file size including header and framing.
	Bytes int64 `json:"bytes"`
}

// Namespace kinds. The zero value ("") means an append-only JSON segment
// namespace; KindBlob marks a namespace holding one binary artifact.
const (
	KindJSON = ""
	KindBlob = "blob"
)

// BlobInfo describes the single committed binary artifact of a blob
// namespace. Format is the artifact's self-declared format version and
// CRC32 the Castagnoli checksum of the whole payload; readers verify both
// before handing bytes out.
type BlobInfo struct {
	// File is the blob filename relative to the store root.
	File string `json:"file"`
	// Bytes is the exact payload size.
	Bytes int64 `json:"bytes"`
	// CRC32 is the Castagnoli checksum of the payload.
	CRC32 uint32 `json:"crc32"`
	// Format is the writer-declared format version of the payload.
	Format int `json:"format"`
}

// ShardInfo lists one shard's sealed segments in append order.
type ShardInfo struct {
	Segments []SegmentInfo `json:"segments"`
	// NextSeq numbers the shard's next segment file.
	NextSeq int64 `json:"next_seq"`
}

// NamespaceInfo describes one namespace: the shards of a JSON namespace,
// or the artifact of a blob namespace.
type NamespaceInfo struct {
	// Segments is the layout manifests used for unsharded namespaces
	// before every JSON namespace had shards. Only loadManifest reads it,
	// folding it into Shards; it is nil in every loaded manifest.
	Segments []SegmentInfo `json:"segments"`
	// NextSeq numbers the next blob file of a blob namespace.
	NextSeq int64 `json:"next_seq"`
	// Kind distinguishes JSON segment namespaces ("") from binary blob
	// namespaces ("blob").
	Kind string `json:"kind,omitempty"`
	// Blob is the committed artifact of a blob namespace.
	Blob *BlobInfo `json:"blob,omitempty"`
	// Shards holds a JSON namespace's records in len(Shards) independent
	// segment groups; an unsharded namespace is K=1.
	Shards []*ShardInfo `json:"shards,omitempty"`
}

// manifest is the on-disk catalog of every namespace.
type manifest struct {
	Version    int                       `json:"version"`
	Namespaces map[string]*NamespaceInfo `json:"namespaces"`
}

func newManifest() *manifest {
	return &manifest{Version: 1, Namespaces: map[string]*NamespaceInfo{}}
}

func loadManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return newManifest(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, manifestName, err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, manifestName, err)
	}
	return &m, nil
}

// validate checks a decoded manifest before the store uses it, folding
// a namespace written before every JSON namespace had shards into one
// shard: every namespace has a valid name and a known kind, every JSON
// namespace at least one shard, and every file a path under the store
// root with counts no reader can misread.
func (m *manifest) validate() error {
	if m.Version != 1 {
		return fmt.Errorf("unsupported version %d", m.Version)
	}
	if m.Namespaces == nil {
		m.Namespaces = map[string]*NamespaceInfo{}
	}
	for ns, info := range m.Namespaces {
		if err := validNamespace(ns); err != nil {
			return err
		}
		if info == nil || info.Kind != KindJSON && info.Kind != KindBlob {
			return fmt.Errorf("namespace %q: no entry or an unknown kind", ns)
		}
		if info.Kind == KindBlob {
			if info.Shards != nil || info.Segments != nil {
				return fmt.Errorf("namespace %q: a blob namespace listing segments", ns)
			}
			if b := info.Blob; b != nil && (!filepath.IsLocal(b.File) || b.Bytes < 0) {
				return fmt.Errorf("namespace %q: bad blob %+v", ns, *b)
			}
			continue
		}
		if info.Shards != nil && info.Segments != nil {
			return fmt.Errorf("namespace %q: both a shard list and a legacy segment list", ns)
		}
		if info.Shards == nil {
			// Written before every JSON namespace had shards: the segments
			// become shard 0 where they lie, and the next commit stores
			// the folded form.
			info.Shards = []*ShardInfo{{Segments: info.Segments, NextSeq: info.NextSeq}}
			info.Segments, info.NextSeq = nil, 0
		}
		if len(info.Shards) == 0 {
			return fmt.Errorf("namespace %q: no shards", ns)
		}
		for i, sh := range info.Shards {
			if sh == nil || sh.NextSeq < 0 {
				return fmt.Errorf("namespace %q: shard %d: no entry or a negative sequence", ns, i)
			}
			for _, seg := range sh.Segments {
				if !filepath.IsLocal(seg.File) || seg.Records < 0 || seg.Bytes < 0 {
					return fmt.Errorf("namespace %q: shard %d: bad segment %+v", ns, i, seg)
				}
			}
		}
	}
	return nil
}

// jsonNamespace returns the committed entry of a JSON namespace. The
// caller holds the store's lock.
func (m *manifest) jsonNamespace(ns string) (*NamespaceInfo, error) {
	info := m.Namespaces[ns]
	if info == nil {
		return nil, fmt.Errorf("store: unknown namespace %q: %w", ns, ErrNotExist)
	}
	if info.Kind == KindBlob {
		return nil, fmt.Errorf("store: namespace %q holds a binary blob, not JSON segments", ns)
	}
	return info, nil
}

// commit atomically replaces the manifest on disk.
func (m *manifest) commit(dir string) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: commit manifest: %w", err)
	}
	return nil
}

// namespaceNames returns the sorted namespace names.
func (m *manifest) namespaceNames() []string {
	names := make([]string, 0, len(m.Namespaces))
	for n := range m.Namespaces {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
