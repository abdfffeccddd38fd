package crawler

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

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
}

// Checkpoint is one durable record of crawl progress: the phase, the
// work remaining in it, and everything collected so far. Records are
// append-only; the latest one wins.
type Checkpoint struct {
	// Seq numbers checkpoints within one crawl, for observability.
	Seq int `json:"seq"`
	// Phase is PhaseBFS, PhaseAugment, PhaseDone or PhasePersisted.
	Phase string `json:"phase"`
	// Round is the number of completed BFS rounds.
	Round int `json:"round"`
	// StartupFrontier and UserFrontier hold the next BFS round's work
	// (PhaseBFS only), sorted for stable records.
	StartupFrontier []string `json:"startup_frontier,omitempty"`
	UserFrontier    []string `json:"user_frontier,omitempty"`
	// AugmentDone lists startup IDs already augmented (PhaseAugment).
	AugmentDone []string `json:"augment_done,omitempty"`
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

// LoadCheckpoint returns the latest checkpoint in the namespace, or
// ok=false when none has ever been committed. Every record carries the
// whole partial snapshot, so only the last one is decoded: the scan
// still checks every segment's framing, CRC and record count, but keeps
// just the raw bytes of the record it last saw. A last record that does
// not decode, names an unknown phase or holds a null entity is an error
// wrapping store.ErrCorrupt: resuming from it would take it for a
// finished crawl or dereference the null. The context bounds the
// checkpoint scan.
func LoadCheckpoint(ctx context.Context, s *store.Store, ns string) (*Checkpoint, bool, error) {
	if !slices.Contains(s.Namespaces(), ns) {
		return nil, false, nil
	}
	var last []byte
	seen := false
	err := s.ScanContext(ctx, ns, func(payload []byte) error {
		last = append(last[:0], payload...)
		seen = true
		return nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("crawler: load checkpoint: %w", err)
	}
	if !seen {
		return nil, false, nil
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(last, cp); err != nil {
		return nil, false, fmt.Errorf("crawler: load checkpoint: unmarshal record in %q: %w: %w", ns, store.ErrCorrupt, err)
	}
	if cp.Snap == nil {
		cp.Snap = &Snapshot{}
	}
	if err := cp.validate(); err != nil {
		return nil, false, fmt.Errorf("crawler: load checkpoint: record in %q: %w", ns, err)
	}
	ensureMaps(cp.Snap)
	return cp, true, nil
}

// validate checks what a resume relies on beyond the JSON shape: a
// known phase and no null entity in any snapshot map.
func (cp *Checkpoint) validate() error {
	switch cp.Phase {
	case PhaseBFS, PhaseAugment, PhaseDone, PhasePersisted:
	default:
		return fmt.Errorf("%w: unknown phase %q", store.ErrCorrupt, cp.Phase)
	}
	s := cp.Snap
	if hasNull(s.Startups) || hasNull(s.Users) || hasNull(s.CrunchBase) || hasNull(s.Facebook) || hasNull(s.Twitter) {
		return fmt.Errorf("%w: null entity in the snapshot", store.ErrCorrupt)
	}
	return nil
}

func hasNull[T any](m map[string]*T) bool {
	for _, v := range m {
		if v == nil {
			return true
		}
	}
	return false
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
