package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
	"crowdscope/internal/store"
)

// ErrPartitionIncomplete reports a merge attempted before every
// partition has a terminal checkpoint.
var ErrPartitionIncomplete = errors.New("fleet: partition incomplete")

// MergePartitions reconciles the fleet's completed partial snapshots
// into one. Each partition contributes its winning (highest-fence)
// terminal checkpoint; partials are folded in ascending (fence,
// partition index) order so conflicting records resolve
// last-fenced-writer-wins. In practice there are no conflicts to win —
// an entity's data is a pure function of the served world, and BFS
// reachability from the union of seed partitions equals reachability
// from the full listing — which is exactly why the merged snapshot
// persists and freezes byte-identically to a single-worker crawl. The
// fence order is the safety net for worlds that mutate mid-crawl: the
// most recently fenced owner's view survives.
func MergePartitions(ctx context.Context, st *store.Store, parts []Partition) (*crawler.Snapshot, error) {
	type partial struct {
		part Partition
		cp   *crawler.Checkpoint
	}
	partials := make([]partial, 0, len(parts))
	for _, p := range parts {
		cp, ok, err := crawler.LoadCheckpoint(ctx, st, p.checkpointNS())
		if err != nil {
			return nil, err
		}
		if !ok || (cp.Phase != crawler.PhaseDone && cp.Phase != crawler.PhasePersisted) {
			return nil, fmt.Errorf("%w: %s", ErrPartitionIncomplete, p.key())
		}
		partials = append(partials, partial{part: p, cp: cp})
	}
	sort.SliceStable(partials, func(i, j int) bool {
		if partials[i].cp.Fence != partials[j].cp.Fence {
			return partials[i].cp.Fence < partials[j].cp.Fence
		}
		return partials[i].part.Index < partials[j].part.Index
	})

	merged := &crawler.Snapshot{}
	for _, pa := range partials {
		s := pa.cp.Snap
		if merged.Startups == nil {
			*merged = *s
			continue
		}
		for id, v := range s.Startups {
			merged.Startups[id] = v
		}
		for id, v := range s.Users {
			merged.Users[id] = v
		}
		for id, v := range s.CrunchBase {
			merged.CrunchBase[id] = v
		}
		for id, v := range s.Facebook {
			merged.Facebook[id] = v
		}
		for id, v := range s.Twitter {
			merged.Twitter[id] = v
		}
		merged.Stats.Checkpoints += s.Stats.Checkpoints
		if s.Stats.Rounds > merged.Stats.Rounds {
			merged.Stats.Rounds = s.Stats.Rounds
		}
		merged.Stats.SeedStartups += s.Stats.SeedStartups
	}
	merged.Stats.StartupsCrawled = len(merged.Startups)
	merged.Stats.UsersCrawled = len(merged.Users)
	return merged, nil
}

// CommitMerged persists the merged snapshot through crawler.Persist
// (sorted-ID record order; new namespaces are K=1 — the fleet's
// partition count is not a shard count — and existing ones keep their
// K) and freezes it, returning the frozen artifact's snapshot tag.
// Because persist and freeze are the same code paths a single-worker
// crawl uses, the frozen snap and index blobs come out byte-identical to
// that crawl's.
func CommitMerged(ctx context.Context, st *store.Store, snap *crawler.Snapshot, snapshotNum int) (int, error) {
	if err := crawler.Persist(ctx, st, snap, snapshotNum); err != nil {
		return 0, fmt.Errorf("fleet: commit merged: %w", err)
	}
	got, err := core.BuildFrozen(ctx, st, snapshotNum)
	if err != nil {
		return 0, fmt.Errorf("fleet: commit merged: %w", err)
	}
	return got, nil
}
