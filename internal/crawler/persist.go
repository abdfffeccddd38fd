package crawler

import (
	"context"
	"fmt"
	"sort"

	"crowdscope/internal/ecosystem"
	"crowdscope/internal/store"
)

// Store namespaces, one per crawled source, mirroring the paper's
// HDFS layout of JSON files per data source.
const (
	NSStartups   = "angellist/startups"
	NSUsers      = "angellist/users"
	NSCrunchBase = "crunchbase/profiles"
	NSFacebook   = "facebook/profiles"
	NSTwitter    = "twitter/profiles"
)

// StartupRecord is the persisted form of a crawled startup.
type StartupRecord struct {
	ecosystem.Startup
	// Snapshot tags the crawl round for longitudinal studies.
	Snapshot int `json:"snapshot"`
}

// UserRecord is the persisted form of a crawled user.
type UserRecord struct {
	ecosystem.User
	Snapshot int `json:"snapshot"`
}

// AugmentRecord attaches a source profile to its startup.
type AugmentRecord[T any] struct {
	StartupID string `json:"startup_id"`
	Profile   T      `json:"profile"`
	Snapshot  int    `json:"snapshot"`
}

// Persist writes the snapshot into the store under the standard
// namespaces, tagging every record with the snapshot number. Records are
// written in sorted ID order so persisted output is deterministic. A
// namespace that already exists hash-sharded (a store prepared by
// PersistSharded or a sharded ingest) keeps its shard count: records
// route by store.ShardFor over the same keys the ingest path uses
// (startups and users by their own ID, augmentation profiles by the
// owning startup ID), so the crawl namespaces stay co-sharded and the
// shard-at-a-time freeze works unchanged. The context bounds the
// durable writes: a canceled ctx stops between records, leaving the
// in-flight namespace uncommitted (segment commits are atomic, so the
// store never sees a torn snapshot).
func Persist(ctx context.Context, s *store.Store, snap *Snapshot, snapshotNum int) error {
	return PersistSharded(ctx, s, snap, snapshotNum, 0)
}

// PersistSharded is Persist with an explicit shard count for namespaces
// that do not exist yet: new namespaces are created with `shards`
// shards (K=1 when shards <= 1), existing ones keep their committed
// count (the store enforces equal K on reopen). It is how a crawl
// bootstraps a store at paper scale, where every downstream stage wants
// the K-way layout.
func PersistSharded(ctx context.Context, s *store.Store, snap *Snapshot, snapshotNum, shards int) error {
	if err := persistMap(ctx, s, NSStartups, snap.Startups, shards, func(id string, v *ecosystem.Startup) any {
		return StartupRecord{Startup: *v, Snapshot: snapshotNum}
	}); err != nil {
		return err
	}
	if err := persistMap(ctx, s, NSUsers, snap.Users, shards, func(id string, v *ecosystem.User) any {
		return UserRecord{User: *v, Snapshot: snapshotNum}
	}); err != nil {
		return err
	}
	if err := persistMap(ctx, s, NSCrunchBase, snap.CrunchBase, shards, func(id string, v *ecosystem.CrunchBaseProfile) any {
		return AugmentRecord[ecosystem.CrunchBaseProfile]{StartupID: id, Profile: *v, Snapshot: snapshotNum}
	}); err != nil {
		return err
	}
	if err := persistMap(ctx, s, NSFacebook, snap.Facebook, shards, func(id string, v *ecosystem.FacebookProfile) any {
		return AugmentRecord[ecosystem.FacebookProfile]{StartupID: id, Profile: *v, Snapshot: snapshotNum}
	}); err != nil {
		return err
	}
	return persistMap(ctx, s, NSTwitter, snap.Twitter, shards, func(id string, v *ecosystem.TwitterProfile) any {
		return AugmentRecord[ecosystem.TwitterProfile]{StartupID: id, Profile: *v, Snapshot: snapshotNum}
	})
}

func persistMap[T any](ctx context.Context, s *store.Store, ns string, m map[string]*T, shards int, wrap func(string, *T) any) error {
	if len(m) == 0 {
		return nil
	}
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// An existing namespace dictates its own layout; the caller's shard
	// count only shapes namespaces being created now.
	k := max(shards, 1)
	if existing, err := s.ShardCount(ns); err == nil {
		k = existing
	}
	w, err := s.Writer(ns, k)
	if err != nil {
		return err
	}
	defer w.Abort() // a no-op once Close has committed
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("crawler: persist %s: %w", ns, err)
		}
		if err := w.Append(id, wrap(id, m[id])); err != nil {
			return fmt.Errorf("crawler: persist %s: %w", ns, err)
		}
	}
	return w.Close()
}
