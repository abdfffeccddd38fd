package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Sharded namespaces partition records by entity key into K independent
// segment groups, so readers can process one shard's records at a time
// (bounding peak memory at O(namespace/K)) or walk shards concurrently.
// The shard of a record is a pure function of its key — ShardFor — which
// lets independent namespaces that share keys (a startup and its
// augmentation profiles) co-shard, so a per-shard join never needs
// records from another shard.
//
// Legacy namespaces written by Writer read as a single shard (shard 0);
// nothing about their manifest entries or file layout changes.

// ShardFor returns the shard a key routes to among `shards` groups. The
// hash is FNV-1a over the key bytes, so the assignment is stable across
// processes and store generations.
func ShardFor(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(shards))
}

// ShardCount returns the number of shards the namespace was written
// with: 1 for legacy (unsharded) namespaces, K for sharded ones.
func (s *Store) ShardCount(ns string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := s.manifest.Namespaces[ns]
	if info == nil {
		return 0, fmt.Errorf("store: unknown namespace %q", ns)
	}
	if info.Kind == KindBlob {
		return 0, fmt.Errorf("store: namespace %q holds a binary blob, not JSON segments", ns)
	}
	return info.shardCount(), nil
}

// shardDir is the per-shard subdirectory under a namespace directory.
func shardDir(ns string, shard int) string {
	return filepath.Join(nsDir(ns), fmt.Sprintf("shard-%03d", shard))
}

// shardAppender buffers one shard's active segment and its sealed-but-
// uncommitted segment list.
type shardAppender struct {
	seg    *segmentWriter
	sealed []SegmentInfo
	seq    int64
}

// ShardedWriter appends JSON records to a sharded namespace, routing
// each record by its key. Like Writer, it is not safe for concurrent
// use, and records become visible only when Flush (or Close) commits
// the manifest — all shards commit atomically in one manifest write, so
// readers never observe a namespace with some shards ahead of others.
type ShardedWriter struct {
	s       *Store
	ns      string
	shards  []*shardAppender
	closed  bool
	maxSize int64
}

// ShardedWriter opens an appender that partitions the namespace into
// `shards` segment groups. Reopening an existing sharded namespace
// requires the same shard count; a namespace already holding unsharded
// segments cannot be reopened sharded (write it with Writer, or into a
// fresh namespace).
func (s *Store) ShardedWriter(ns string, shards int) (*ShardedWriter, error) {
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
		if info.Shards == nil && (len(info.Segments) > 0 || info.NextSeq > 0) {
			return nil, fmt.Errorf("store: namespace %q holds unsharded segments; cannot append sharded", ns)
		}
		if info.Shards != nil && len(info.Shards) != shards {
			return nil, fmt.Errorf("store: namespace %q has %d shards, writer requested %d",
				ns, len(info.Shards), shards)
		}
	}
	w := &ShardedWriter{s: s, ns: ns, maxSize: s.SegmentBytes, shards: make([]*shardAppender, shards)}
	for i := range w.shards {
		w.shards[i] = &shardAppender{}
		if info != nil && info.Shards != nil {
			w.shards[i].seq = info.Shards[i].NextSeq
		}
		if err := os.MkdirAll(filepath.Join(s.dir, shardDir(ns, i)), 0o755); err != nil {
			return nil, err
		}
	}
	s.writers[ns] = true
	return w, nil
}

// Append marshals v as JSON and appends it to the key's shard.
func (w *ShardedWriter) Append(key string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshal record: %w", err)
	}
	return w.AppendRaw(key, payload)
}

// AppendRaw appends a pre-marshaled JSON payload to the key's shard.
func (w *ShardedWriter) AppendRaw(key string, payload []byte) error {
	return w.AppendRawTo(ShardFor(key, len(w.shards)), payload)
}

// AppendRawTo appends a pre-marshaled JSON payload to the given shard,
// for a caller copying records out of a namespace sharded by the same
// key and count, where the source shard is the key's shard.
func (w *ShardedWriter) AppendRawTo(shard int, payload []byte) error {
	if w.closed {
		return errors.New("store: append to closed writer")
	}
	if shard < 0 || shard >= len(w.shards) {
		return fmt.Errorf("store: namespace %q has %d shards, append to shard %d", w.ns, len(w.shards), shard)
	}
	sa := w.shards[shard]
	if sa.seg == nil {
		seg, err := newSegmentWriter(filepath.Join(w.s.dir, shardDir(w.ns, shard), fmt.Sprintf("seg-%06d.csg", sa.seq)))
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
		return w.rotate(sa)
	}
	return nil
}

func (w *ShardedWriter) rotate(sa *shardAppender) error {
	records, size, err := sa.seg.seal()
	if err != nil {
		return err
	}
	sa.sealed = append(sa.sealed, SegmentInfo{
		File:    filepath.Join(filepath.Dir(w.relFile(sa.seg.path)), filepath.Base(sa.seg.path)),
		Records: records,
		Bytes:   size,
	})
	sa.seg = nil
	return nil
}

// relFile converts an absolute segment path back to its store-relative
// form for the manifest.
func (w *ShardedWriter) relFile(path string) string {
	rel, err := filepath.Rel(w.s.dir, path)
	if err != nil {
		return path
	}
	return rel
}

// Flush seals every shard's active segment and commits all sealed
// segments in one atomic manifest write.
func (w *ShardedWriter) Flush() error {
	if w.closed {
		return errors.New("store: flush of closed writer")
	}
	for _, sa := range w.shards {
		if sa.seg == nil {
			continue
		}
		if sa.seg.records > 0 {
			if err := w.rotate(sa); err != nil {
				return err
			}
		} else {
			sa.seg.abort()
			sa.seg = nil
			sa.seq--
		}
	}
	pending := 0
	for _, sa := range w.shards {
		pending += len(sa.sealed)
	}
	if pending == 0 {
		return nil
	}
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	info := w.s.manifest.Namespaces[w.ns]
	if info == nil {
		info = &NamespaceInfo{}
		w.s.manifest.Namespaces[w.ns] = info
	}
	if info.Shards == nil {
		info.Shards = make([]*ShardInfo, len(w.shards))
		for i := range info.Shards {
			info.Shards[i] = &ShardInfo{}
		}
	}
	// Snapshot the old shard states so a failed commit rolls back cleanly.
	old := make([]ShardInfo, len(info.Shards))
	for i, sh := range info.Shards {
		old[i] = *sh
	}
	for i, sa := range w.shards {
		info.Shards[i].Segments = append(info.Shards[i].Segments, sa.sealed...)
		info.Shards[i].NextSeq = sa.seq
	}
	if err := w.s.manifest.commit(w.s.dir); err != nil {
		for i := range info.Shards {
			*info.Shards[i] = old[i]
		}
		return err
	}
	for _, sa := range w.shards {
		sa.sealed = sa.sealed[:0]
	}
	return nil
}

// Close flushes and releases the namespace writer slot. Close is
// idempotent.
func (w *ShardedWriter) Close() error {
	if w.closed {
		return nil
	}
	err := w.Flush()
	w.release()
	return err
}

// Abort releases the writer slot without committing: every record
// appended since the last Flush is discarded and its segment files are
// removed. A no-op on a closed writer.
func (w *ShardedWriter) Abort() {
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
	w.release()
}

func (w *ShardedWriter) release() {
	w.closed = true
	w.s.mu.Lock()
	delete(w.s.writers, w.ns)
	w.s.mu.Unlock()
}

// snapshotShard returns the committed segment list of one shard. Legacy
// namespaces expose their whole segment list as shard 0.
func (s *Store) snapshotShard(ns string, shard int) ([]SegmentInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := s.manifest.Namespaces[ns]
	if info == nil {
		return nil, fmt.Errorf("store: unknown namespace %q", ns)
	}
	if info.Kind == KindBlob {
		return nil, fmt.Errorf("store: namespace %q holds a binary blob, not JSON segments", ns)
	}
	if shard < 0 || shard >= info.shardCount() {
		return nil, fmt.Errorf("store: namespace %q has %d shards, requested shard %d",
			ns, info.shardCount(), shard)
	}
	var segs []SegmentInfo
	if info.Shards == nil {
		segs = append(segs, info.Segments...)
	} else {
		segs = append(segs, info.Shards[shard].Segments...)
	}
	return segs, nil
}

// ScanShard streams one shard's committed records, in append order, to
// fn. The payload slice is reused; fn must copy it if retained. A
// legacy namespace has exactly one shard (0) holding everything.
func (s *Store) ScanShard(ns string, shard int, fn func(payload []byte) error) error {
	segs, err := s.snapshotShard(ns, shard)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := scanSegment(filepath.Join(s.dir, seg.File), seg.Records, fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanShardContext is ScanShard bounded by the caller's context,
// checked before every record.
func (s *Store) ScanShardContext(ctx context.Context, ns string, shard int, fn func(payload []byte) error) error {
	return s.ScanShard(ns, shard, func(payload []byte) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("store: scan %q shard %d: %w", ns, shard, err)
		}
		return fn(payload)
	})
}

// compactShards rewrites each shard's segments into one new segment and
// commits the replacement for every shard in a single manifest write.
// The caller holds the namespace's writer slot.
func (s *Store) compactShards(ns string) error {
	s.mu.Lock()
	info := s.manifest.Namespaces[ns]
	k := len(info.Shards)
	seqs := make([]int64, k)
	for i, sh := range info.Shards {
		seqs[i] = sh.NextSeq
	}
	s.mu.Unlock()

	newSegs := make([]SegmentInfo, k)
	cleanup := func(upto int) {
		for i := 0; i < upto; i++ {
			os.Remove(filepath.Join(s.dir, newSegs[i].File))
		}
	}
	for shard := 0; shard < k; shard++ {
		segs, err := s.snapshotShard(ns, shard)
		if err != nil {
			cleanup(shard)
			return err
		}
		rel := filepath.Join(shardDir(ns, shard), fmt.Sprintf("seg-%06d.csg", seqs[shard]))
		sw, err := newSegmentWriter(filepath.Join(s.dir, rel))
		if err != nil {
			cleanup(shard)
			return err
		}
		for _, seg := range segs {
			err := scanSegment(filepath.Join(s.dir, seg.File), seg.Records, func(payload []byte) error {
				return sw.append(payload)
			})
			if err != nil {
				sw.abort()
				cleanup(shard)
				return err
			}
		}
		records, size, err := sw.seal()
		if err != nil {
			cleanup(shard)
			return err
		}
		newSegs[shard] = SegmentInfo{File: rel, Records: records, Bytes: size}
	}

	s.mu.Lock()
	info = s.manifest.Namespaces[ns]
	old := make([]ShardInfo, k)
	for i, sh := range info.Shards {
		old[i] = *sh
		sh.Segments = []SegmentInfo{newSegs[i]}
		sh.NextSeq = seqs[i] + 1
	}
	if err := s.manifest.commit(s.dir); err != nil {
		for i := range info.Shards {
			*info.Shards[i] = old[i]
		}
		s.mu.Unlock()
		cleanup(k)
		return err
	}
	s.mu.Unlock()
	for _, sh := range old {
		for _, seg := range sh.Segments {
			os.Remove(filepath.Join(s.dir, seg.File))
		}
	}
	return nil
}

// ScanShardAsContext streams one shard's records unmarshaled into T,
// under the caller's context.
func ScanShardAsContext[T any](ctx context.Context, s *Store, ns string, shard int, fn func(rec T) error) error {
	return s.ScanShardContext(ctx, ns, shard, func(payload []byte) error {
		var rec T
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("store: unmarshal record in %q shard %d: %w", ns, shard, err)
		}
		return fn(rec)
	})
}
