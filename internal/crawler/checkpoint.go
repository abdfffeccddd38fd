package crawler

import (
	"context"
	"fmt"

	"crowdscope/internal/ecosystem"
	"crowdscope/internal/store"
)

// Crawl phases recorded in checkpoints. PhaseDone marks a finished
// crawl; PhasePersisted additionally records (for callers like the
// Pipeline) that the snapshot was durably persisted, so a resumed run
// must not write it again. Both are terminal for Run.
const (
	PhaseBFS       = "bfs"
	PhaseAugment   = "augment"
	PhaseDone      = "done"
	PhasePersisted = "persisted"
)

// augmentBatch is how many startups are augmented between checkpoints.
const augmentBatch = 64

// CheckpointConfig enables durable crawl progress. After every BFS round
// and every augmentation batch the crawler appends a Checkpoint record to
// the namespace; a crawl started with Resume picks up from the latest
// one, so a crashed or canceled run re-fetches at most one round or one
// batch of work.
type CheckpointConfig struct {
	// Store receives the checkpoint records. Required.
	Store *store.Store
	// Namespace for the records. Required: give each logical crawl
	// (e.g. each longitudinal snapshot) its own namespace.
	Namespace string
	// Resume loads the latest checkpoint before starting and skips all
	// completed work. Without a checkpoint on disk it is a no-op.
	Resume bool
	// Fence, when nonzero, tags every checkpoint record this crawl
	// writes with the writer's fencing token (a fleet worker's lease
	// token). LoadCheckpoint prefers the highest fence, so records a
	// stale owner sneaks in after losing its lease can never shadow the
	// current owner's progress.
	Fence int64
	// Guard, when non-nil, runs before every checkpoint write; an error
	// aborts the crawl. Fleet workers verify their lease is still held
	// here, so a fenced-out worker stops at its next persist instead of
	// crawling on uselessly.
	Guard func(ctx context.Context) error
}

// Checkpoint is one durable record of crawl progress: the phase, the
// work remaining in it, and everything collected so far. Records are
// append-only; the latest one wins.
type Checkpoint struct {
	// Seq numbers checkpoints within one crawl, for observability.
	Seq int `json:"seq"`
	// Phase is PhaseBFS, PhaseAugment or PhaseDone.
	Phase string `json:"phase"`
	// Round is the number of completed BFS rounds.
	Round int `json:"round"`
	// StartupFrontier and UserFrontier hold the next BFS round's work
	// (PhaseBFS only), sorted for stable records.
	StartupFrontier []string `json:"startup_frontier,omitempty"`
	UserFrontier    []string `json:"user_frontier,omitempty"`
	// AugmentDone lists startup IDs already augmented (PhaseAugment).
	AugmentDone []string `json:"augment_done,omitempty"`
	// Fence is the writer's fencing token (0 outside fleet crawls).
	// Among committed records, higher fences always win: a reclaimed
	// partition's new owner shadows anything its predecessor wrote.
	Fence int64 `json:"fence,omitempty"`
	// Snap is the partial snapshot collected so far.
	Snap *Snapshot `json:"snapshot"`
}

// SaveCheckpoint appends cp to the namespace and commits it durably. A
// canceled ctx skips the write entirely; checkpoints are all-or-nothing.
func SaveCheckpoint(ctx context.Context, s *store.Store, ns string, cp *Checkpoint) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("crawler: checkpoint: %w", err)
	}
	w, err := s.Writer(ns, 1)
	if err != nil {
		return fmt.Errorf("crawler: checkpoint: %w", err)
	}
	if err := w.Append("", cp); err != nil {
		w.Abort()
		return fmt.Errorf("crawler: checkpoint: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("crawler: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint returns the winning checkpoint in the namespace, or
// ok=false when none has ever been committed. The winner is the record
// with the highest fencing token, ties broken by append order — for
// single-owner crawls (all fences zero) that is simply the latest
// record, and for fleet partitions it means a stale ex-owner's late
// append can never shadow the reclaiming owner's progress. The context
// bounds the checkpoint scan.
func LoadCheckpoint(ctx context.Context, s *store.Store, ns string) (*Checkpoint, bool, error) {
	known := false
	for _, n := range s.Namespaces() {
		if n == ns {
			known = true
			break
		}
	}
	if !known {
		return nil, false, nil
	}
	var last *Checkpoint
	err := store.ScanAsContext(ctx, s, ns, func(cp Checkpoint) error {
		if last != nil && cp.Fence < last.Fence {
			return nil
		}
		c := cp
		last = &c
		return nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("crawler: load checkpoint: %w", err)
	}
	if last == nil {
		return nil, false, nil
	}
	if last.Snap == nil {
		last.Snap = &Snapshot{}
	}
	ensureMaps(last.Snap)
	return last, true, nil
}

// ensureMaps fills nil maps after JSON round-trips of empty snapshots.
func ensureMaps(snap *Snapshot) {
	if snap.Startups == nil {
		snap.Startups = map[string]*ecosystem.Startup{}
	}
	if snap.Users == nil {
		snap.Users = map[string]*ecosystem.User{}
	}
	if snap.CrunchBase == nil {
		snap.CrunchBase = map[string]*ecosystem.CrunchBaseProfile{}
	}
	if snap.Facebook == nil {
		snap.Facebook = map[string]*ecosystem.FacebookProfile{}
	}
	if snap.Twitter == nil {
		snap.Twitter = map[string]*ecosystem.TwitterProfile{}
	}
}
