package store

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
)

// Every JSON namespace partitions its records by entity key into K
// independent segment groups, so readers can process one shard's records
// at a time (bounding peak memory at O(namespace/K)) or walk shards
// concurrently. The shard of a record is a pure function of its key —
// ShardFor — which lets independent namespaces that share keys (a
// startup and its augmentation profiles) co-shard, so a per-shard join
// never needs records from another shard. An unsharded namespace is
// K=1: one shard, in shard-000/.

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
// with.
func (s *Store) ShardCount(ns string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, err := s.manifest.jsonNamespace(ns)
	if err != nil {
		return 0, err
	}
	return len(info.Shards), nil
}

// shardDir is the per-shard subdirectory under a namespace directory.
func shardDir(ns string, shard int) string {
	return filepath.Join(nsDir(ns), fmt.Sprintf("shard-%03d", shard))
}

// ScanShard streams one shard's committed records, in append order, to
// fn. The payload slice is reused; fn must copy it if retained.
func (s *Store) ScanShard(ns string, shard int, fn func(payload []byte) error) error {
	shards, err := s.snapshot(ns)
	if err != nil {
		return err
	}
	if shard < 0 || shard >= len(shards) {
		return fmt.Errorf("store: namespace %q has %d shards, requested shard %d", ns, len(shards), shard)
	}
	return s.scanSegments(shards[shard], fn)
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
