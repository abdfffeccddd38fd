package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// DefaultSegmentBytes is the rotation threshold for active segments.
const DefaultSegmentBytes = 8 << 20

// ErrWritersOpen marks a Reload refused because the handle has open
// writers whose pending commits would race the fresh manifest. Callers
// that poll Reload opportunistically (a serving replica's health probe,
// an embedded reader next to a live crawler) match it with errors.Is to
// tell "busy, try later" apart from a genuinely unreadable manifest.
var ErrWritersOpen = errors.New("store: open writers")

// Store is a directory-rooted collection of append-only JSON namespaces.
// A Store is safe for concurrent use; each namespace admits one open
// Writer at a time while any number of readers scan committed data.
type Store struct {
	dir      string
	readOnly bool

	mu       sync.Mutex
	manifest *manifest
	writers  map[string]bool // namespaces with an open writer

	// SegmentBytes is the active-segment rotation threshold; set before
	// opening writers. Defaults to DefaultSegmentBytes.
	SegmentBytes int64
}

// Open opens (creating if necessary) a store rooted at dir.
func Open(dir string) (*Store, error) {
	return open(dir, false)
}

// OpenReadOnly opens a store for reading only: Writer and PutBlob are
// rejected, and the crash-debris sweep is skipped. The
// sweep makes read-only opens safe to run concurrently with a live
// writer process (e.g. crowdscope serve polling a store a crawler is still
// appending to): a writing handle's Open would delete the other
// process's in-flight *.tmp manifest commit and uncommitted segment
// files as crash leftovers, corrupting the writer mid-commit.
func OpenReadOnly(dir string) (*Store, error) {
	return open(dir, true)
}

func open(dir string, readOnly bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	m, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if !readOnly {
		if err := sweepOrphans(dir, m); err != nil {
			return nil, err
		}
	}
	return &Store{
		dir:          dir,
		readOnly:     readOnly,
		manifest:     m,
		writers:      map[string]bool{},
		SegmentBytes: DefaultSegmentBytes,
	}, nil
}

// Reload re-reads the manifest from disk, making namespaces committed by
// other processes (e.g. a crawler appending to a store a server is
// serving from) visible to this handle. It is a reader-side API: a
// handle with open writers refuses to reload, because the fresh
// manifest would race the writers' pending commits. Data files are
// immutable once committed, so readers resolved against the old
// manifest stay valid across a reload.
func (s *Store) Reload() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.writers) > 0 {
		return fmt.Errorf("store: reload: %d namespaces have open writers: %w", len(s.writers), ErrWritersOpen)
	}
	m, err := loadManifest(s.dir)
	if err != nil {
		return fmt.Errorf("store: reload: %w", err)
	}
	s.manifest = m
	return nil
}

// sweepOrphans removes the debris a crash mid-commit can leave behind:
// *.tmp files from interrupted manifest commits, and segment/blob files
// that were written but never committed to the manifest. Uncommitted
// files are invisible to readers, but they occupy the exact path the
// namespace's next write reserves (segment and blob files are created
// with O_EXCL at NextSeq), so a crashed Writer or PutBlob would
// otherwise wedge the namespace permanently. Only files matching the
// store's own naming patterns are touched; anything else in the
// directory is left alone.
func sweepOrphans(dir string, m *manifest) error {
	committed := map[string]bool{}
	for _, info := range m.Namespaces {
		for _, sh := range info.Shards {
			for _, seg := range sh.Segments {
				committed[filepath.Join(dir, seg.File)] = true
			}
		}
		if info.Blob != nil {
			committed[filepath.Join(dir, info.Blob.File)] = true
		}
	}
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		uncommittedData := (strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".csg") ||
			strings.HasPrefix(name, "blob-") && strings.HasSuffix(name, ".bin")) &&
			!committed[path]
		if !strings.HasSuffix(name, ".tmp") && !uncommittedData {
			return nil
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: sweep orphan %s: %w", name, err)
		}
		return nil
	})
}

// validNamespace restricts names to path-safe segments like
// "angellist/startups".
func validNamespace(ns string) error {
	if ns == "" {
		return errors.New("store: empty namespace")
	}
	for _, part := range strings.Split(ns, "/") {
		if part == "" || part == "." || part == ".." {
			return fmt.Errorf("store: invalid namespace %q", ns)
		}
		for _, r := range part {
			if !(r == '-' || r == '_' || r == '.' ||
				(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				return fmt.Errorf("store: invalid namespace %q", ns)
			}
		}
	}
	return nil
}

// nsDir converts a namespace into its directory name under the root. The
// mapping must be injective: "a/b" flattens to "a__b", which would collide
// with the distinct valid namespace "a__b". Escaping every underscore in a
// part as "_x" first means escaped parts never contain "__", so the "__"
// separator is unambiguous and two namespaces never share a directory.
func nsDir(ns string) string {
	parts := strings.Split(ns, "/")
	for i, p := range parts {
		parts[i] = strings.ReplaceAll(p, "_", "_x")
	}
	return strings.Join(parts, "__")
}

// segmentName is the file name of a namespace shard's seq'th segment.
func segmentName(seq int64) string { return fmt.Sprintf("seg-%06d.csg", seq) }

// shardAppender buffers one shard's active segment and its sealed-but-
// uncommitted segment list.
type shardAppender struct {
	dir    string // the shard directory, relative to the store root
	seg    *segmentWriter
	sealed []SegmentInfo
	seq    int64
}

// Writer appends JSON records to a namespace of K shards, routing each
// record by its key (at K=1 every key routes to shard 0). The one
// concurrent use a Writer allows is AppendRawTo calls on distinct
// shards, each shard's records keeping the order of its calls. Every
// other call — Append and AppendRaw, two appends to one shard, Close,
// Abort — must come from one goroutine, after the concurrent appends
// have returned. Records become visible
// only when Close commits the manifest — all shards commit atomically in
// one manifest write, so readers never observe a namespace with some
// shards ahead of others.
type Writer struct {
	s       *Store
	ns      string
	shards  []*shardAppender
	closed  bool
	maxSize int64
}

// Writer opens an appender that partitions the namespace into `shards`
// segment groups. It returns an error if a writer is already open for
// the namespace, and reopening an existing namespace requires its
// committed shard count.
func (s *Store) Writer(ns string, shards int) (*Writer, error) {
	if s.readOnly {
		return nil, fmt.Errorf("store: namespace %q: handle is read-only", ns)
	}
	if err := validNamespace(ns); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("store: namespace %q: shard count %d must be >= 1", ns, shards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writers[ns] {
		return nil, fmt.Errorf("store: namespace %q already has an open writer", ns)
	}
	info := s.manifest.Namespaces[ns]
	if info != nil {
		if info.Kind == KindBlob {
			return nil, fmt.Errorf("store: namespace %q holds a binary blob, not JSON segments", ns)
		}
		if len(info.Shards) != shards {
			return nil, fmt.Errorf("store: namespace %q has %d shards, writer requested %d",
				ns, len(info.Shards), shards)
		}
	}
	w := &Writer{s: s, ns: ns, maxSize: s.SegmentBytes, shards: make([]*shardAppender, shards)}
	for i := range w.shards {
		w.shards[i] = &shardAppender{dir: shardDir(ns, i)}
		if info != nil {
			w.shards[i].seq = info.Shards[i].NextSeq
		}
		if err := os.MkdirAll(filepath.Join(s.dir, w.shards[i].dir), 0o755); err != nil {
			return nil, err
		}
	}
	s.writers[ns] = true
	return w, nil
}

// Append marshals v as JSON and appends it to the key's shard.
func (w *Writer) Append(key string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshal record: %w", err)
	}
	return w.AppendRaw(key, payload)
}

// AppendRaw appends a pre-marshaled JSON payload to the key's shard.
func (w *Writer) AppendRaw(key string, payload []byte) error {
	return w.AppendRawTo(ShardFor(key, len(w.shards)), payload)
}

// AppendRawTo appends a pre-marshaled JSON payload to the given shard,
// for a caller copying records out of a namespace sharded by the same
// key and count, where the source shard is the key's shard.
func (w *Writer) AppendRawTo(shard int, payload []byte) error {
	if w.closed {
		return errors.New("store: append to closed writer")
	}
	if shard < 0 || shard >= len(w.shards) {
		return fmt.Errorf("store: namespace %q has %d shards, append to shard %d", w.ns, len(w.shards), shard)
	}
	sa := w.shards[shard]
	if sa.seg == nil {
		seg, err := newSegmentWriter(filepath.Join(w.s.dir, sa.dir, segmentName(sa.seq)))
		if err != nil {
			return err
		}
		sa.seq++
		sa.seg = seg
	}
	if err := sa.seg.append(payload); err != nil {
		return err
	}
	if sa.seg.bytes >= w.maxSize {
		return sa.rotate()
	}
	return nil
}

func (sa *shardAppender) rotate() error {
	records, size, err := sa.seg.seal()
	if err != nil {
		return err
	}
	sa.sealed = append(sa.sealed, SegmentInfo{
		File:    filepath.Join(sa.dir, filepath.Base(sa.seg.path)),
		Records: records,
		Bytes:   size,
	})
	sa.seg = nil
	return nil
}

// flush seals every shard's active segment and commits all sealed
// segments in one atomic manifest write. A failed commit leaves the
// in-memory manifest as it was — a namespace the flush would have
// created does not exist — and keeps the sealed segments for a retry.
func (w *Writer) flush() error {
	if w.closed {
		return errors.New("store: flush of closed writer")
	}
	pending := 0
	for _, sa := range w.shards {
		if sa.seg != nil && sa.seg.records > 0 {
			if err := sa.rotate(); err != nil {
				return err
			}
		} else if sa.seg != nil {
			sa.seg.abort()
			sa.seg = nil
			sa.seq--
		}
		pending += len(sa.sealed)
	}
	if pending == 0 {
		return nil
	}
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	m := w.s.manifest
	info := m.Namespaces[w.ns]
	created := info == nil
	if created {
		info = &NamespaceInfo{Shards: make([]*ShardInfo, len(w.shards))}
		for i := range info.Shards {
			info.Shards[i] = &ShardInfo{}
		}
		m.Namespaces[w.ns] = info
	}
	old := make([]ShardInfo, len(info.Shards))
	for i, sh := range info.Shards {
		old[i] = *sh
		sh.Segments = append(sh.Segments, w.shards[i].sealed...)
		sh.NextSeq = w.shards[i].seq
	}
	if err := m.commit(w.s.dir); err != nil {
		if created {
			delete(m.Namespaces, w.ns)
		}
		for i, sh := range info.Shards {
			*sh = old[i]
		}
		return err
	}
	for _, sa := range w.shards {
		sa.sealed = sa.sealed[:0]
	}
	return nil
}

// Close flushes and releases the namespace writer slot: the namespace
// commits everything appended, or — when the flush fails — nothing
// more, with the uncommitted segment files removed. Close is
// idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	err := w.flush()
	w.Abort() // after a successful flush there is nothing left to discard
	return err
}

// Abort releases the writer slot without committing: every record
// appended since the last commit is discarded and its segment files are
// removed. A no-op on a closed writer.
func (w *Writer) Abort() {
	if w.closed {
		return
	}
	for _, sa := range w.shards {
		if sa.seg != nil {
			sa.seg.abort()
		}
		for _, seg := range sa.sealed {
			os.Remove(filepath.Join(w.s.dir, seg.File))
		}
	}
	w.closed = true
	w.s.mu.Lock()
	delete(w.s.writers, w.ns)
	w.s.mu.Unlock()
}

// Scan streams every committed record of the namespace, in append order
// per shard with shards concatenated, to fn. The payload slice is
// reused; fn must copy it if retained. Scan verifies record CRCs and
// per-segment record counts, returning an error wrapping ErrCorrupt on
// integrity failure (or ErrSegmentMissing when a manifest-listed segment
// file is absent). Scanning an unknown namespace is an error.
func (s *Store) Scan(ns string, fn func(payload []byte) error) error {
	shards, err := s.snapshot(ns)
	if err != nil {
		return err
	}
	for _, segs := range shards {
		if err := s.scanSegments(segs, fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanContext is Scan bounded by the caller's context: cancellation is
// checked before every record, so a deadline cuts a long scan off
// mid-stream instead of streaming the namespace to completion. It is the
// deadline-propagation hook the serving layer relies on.
func (s *Store) ScanContext(ctx context.Context, ns string, fn func(payload []byte) error) error {
	return s.Scan(ns, func(payload []byte) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("store: scan %q: %w", ns, err)
		}
		return fn(payload)
	})
}

// snapshot returns a copy of the namespace's committed segment lists,
// one per shard, all taken at the same commit.
func (s *Store) snapshot(ns string) ([][]SegmentInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, err := s.manifest.jsonNamespace(ns)
	if err != nil {
		return nil, err
	}
	shards := make([][]SegmentInfo, len(info.Shards))
	for i, sh := range info.Shards {
		shards[i] = slices.Clone(sh.Segments)
	}
	return shards, nil
}

func (s *Store) scanSegments(segs []SegmentInfo, fn func(payload []byte) error) error {
	for _, seg := range segs {
		if err := scanSegment(filepath.Join(s.dir, seg.File), seg.Records, fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanAsContext streams every committed record of the namespace
// unmarshaled into T, bounded by the caller's context: it is checked
// before every record, so a deadline cuts long typed scans off
// mid-stream.
func ScanAsContext[T any](ctx context.Context, s *Store, ns string, fn func(rec T) error) error {
	return s.ScanContext(ctx, ns, func(payload []byte) error {
		var rec T
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("store: unmarshal record in %q: %w", ns, err)
		}
		return fn(rec)
	})
}

// Namespaces returns the sorted names of all committed namespaces.
func (s *Store) Namespaces() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifest.namespaceNames()
}

// NamespaceStats summarizes a namespace's committed contents.
type NamespaceStats struct {
	Segments int
	Records  int64
	Bytes    int64
	// Kind mirrors the manifest's namespace kind ("" JSON, "blob").
	Kind string
	// Shards is the namespace's shard count (0 for blobs).
	Shards int
}

// Stats returns committed accounting for the namespace, summed across
// its shards.
func (s *Store) Stats(ns string) (NamespaceStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if info := s.manifest.Namespaces[ns]; info != nil && info.Kind == KindBlob {
		st := NamespaceStats{Kind: KindBlob}
		if info.Blob != nil {
			st.Bytes = info.Blob.Bytes
			st.Records = 1
		}
		return st, nil
	}
	info, err := s.manifest.jsonNamespace(ns)
	if err != nil {
		return NamespaceStats{}, err
	}
	st := NamespaceStats{Shards: len(info.Shards)}
	for _, sh := range info.Shards {
		st.Segments += len(sh.Segments)
		for _, seg := range sh.Segments {
			st.Records += seg.Records
			st.Bytes += seg.Bytes
		}
	}
	return st, nil
}
