package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"

	"crowdscope/internal/store"
)

// Crawl phases recorded in checkpoints. PhaseDone marks a finished
// crawl, which a resumed Run returns without fetching anything.
const (
	PhaseBFS     = "bfs"
	PhaseAugment = "augment"
	PhaseDone    = "done"
)

// augmentBatch is how many startups are augmented between checkpoints.
const augmentBatch = 64

// checkpointChunk bounds the entities one checkpoint record holds, so
// that no record nears the store's record size limit however much one
// BFS round adds.
const checkpointChunk = 4096

// CheckpointConfig enables durable crawl progress. After every BFS round
// and every augmentation batch the crawler appends a Checkpoint record to
// the namespace; a crawl started with Resume folds those records and
// picks up where the last one left off, so a crashed or canceled run
// re-fetches at most one round or one batch of work.
type CheckpointConfig struct {
	// Store receives the checkpoint records. Required.
	Store *store.Store
	// Namespace for the records. Required: give each logical crawl
	// (e.g. each longitudinal snapshot) its own namespace.
	Namespace string
	// Resume folds the checkpoint log before starting and skips all
	// completed work. Without a checkpoint on disk it is a no-op.
	Resume bool
}

// Checkpoint is one record of a crawl's append-only checkpoint log: what
// one BFS round or augmentation batch changed. Folding the records in
// append order (LoadCheckpoint) rebuilds the crawl's progress.
type Checkpoint struct {
	// Phase is PhaseBFS, PhaseAugment or PhaseDone.
	Phase string `json:"phase"`
	// Round is the number of completed BFS rounds.
	Round int `json:"round"`
	// StartupFrontier and UserFrontier hold the next BFS round's work
	// (PhaseBFS only), sorted for stable records.
	StartupFrontier []string `json:"startup_frontier,omitempty"`
	UserFrontier    []string `json:"user_frontier,omitempty"`
	// Augmented lists the startups whose augmentation this step finished.
	Augmented []string `json:"augmented,omitempty"`
	// Stats are the crawl's cumulative statistics after this step.
	Stats Stats `json:"stats"`
	// Added holds the entities this step collected, and only those.
	Added *Snapshot `json:"added"`
}

// SaveCheckpoint appends cp to the namespace and commits it durably. A
// step that added more than checkpointChunk entities is split, in ID
// order, over records holding at most that many of one source's
// additions each, followed by cp without additions; all of them commit
// together. A canceled ctx skips the write entirely; checkpoints are
// all-or-nothing.
func SaveCheckpoint(ctx context.Context, s *store.Store, ns string, cp *Checkpoint) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("crawler: checkpoint: %w", err)
	}
	records := []*Checkpoint{cp}
	if a := cp.Added; a != nil && len(a.Startups)+len(a.Users)+len(a.CrunchBase)+len(a.Facebook)+len(a.Twitter) > checkpointChunk {
		records = records[:0]
		part := func(added *Snapshot) {
			records = append(records, &Checkpoint{Phase: cp.Phase, Round: cp.Round, Stats: cp.Stats, Added: added})
		}
		for _, m := range chunk(a.Startups) {
			part(&Snapshot{Startups: m})
		}
		for _, m := range chunk(a.Users) {
			part(&Snapshot{Users: m})
		}
		for _, m := range chunk(a.CrunchBase) {
			part(&Snapshot{CrunchBase: m})
		}
		for _, m := range chunk(a.Facebook) {
			part(&Snapshot{Facebook: m})
		}
		for _, m := range chunk(a.Twitter) {
			part(&Snapshot{Twitter: m})
		}
		rest := *cp
		rest.Added = nil
		records = append(records, &rest)
	}
	w, err := s.Writer(ns, 1)
	if err != nil {
		return fmt.Errorf("crawler: checkpoint: %w", err)
	}
	defer w.Abort() // a no-op once Close has committed
	for _, rec := range records {
		if err := w.Append("", rec); err != nil {
			return fmt.Errorf("crawler: checkpoint: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("crawler: checkpoint: %w", err)
	}
	return nil
}

// chunk splits m, in ID order, into maps of at most checkpointChunk
// entries.
func chunk[T any](m map[string]*T) []map[string]*T {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []map[string]*T
	for i, id := range ids {
		if i%checkpointChunk == 0 {
			out = append(out, make(map[string]*T, min(checkpointChunk, len(m)-i)))
		}
		out[len(out)-1][id] = m[id]
	}
	return out
}

// LoadCheckpoint folds the namespace's checkpoint log into one
// Checkpoint, or returns ok=false when none has ever been committed. The
// fold is the record of a single step from an empty crawl to the log's
// end: Phase, Round, frontiers and Stats of the last record, every
// startup any batch augmented, and every entity any step added. Each
// record is validated as it is folded: one that does not decode, names
// an unknown phase or holds a null entity is an error wrapping
// store.ErrCorrupt, since resuming from it would take it for a finished
// crawl or dereference the null. The context bounds the scan.
func LoadCheckpoint(ctx context.Context, s *store.Store, ns string) (*Checkpoint, bool, error) {
	if !slices.Contains(s.Namespaces(), ns) {
		return nil, false, nil
	}
	fold := &Checkpoint{Added: newSnapshot()}
	records := 0
	err := s.ScanContext(ctx, ns, func(payload []byte) error {
		rec, err := decodeCheckpoint(payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", records, err)
		}
		records++
		fold.Phase, fold.Round, fold.Stats = rec.Phase, rec.Round, rec.Stats
		fold.StartupFrontier, fold.UserFrontier = rec.StartupFrontier, rec.UserFrontier
		fold.Augmented = append(fold.Augmented, rec.Augmented...)
		if a := rec.Added; a != nil {
			maps.Copy(fold.Added.Startups, a.Startups)
			maps.Copy(fold.Added.Users, a.Users)
			maps.Copy(fold.Added.CrunchBase, a.CrunchBase)
			maps.Copy(fold.Added.Facebook, a.Facebook)
			maps.Copy(fold.Added.Twitter, a.Twitter)
		}
		return nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("crawler: load checkpoint %q: %w", ns, err)
	}
	if records == 0 {
		return nil, false, nil
	}
	return fold, true, nil
}

// decodeCheckpoint decodes and validates one log record. Decoding is
// strict: a field the format lacks — such as the whole-crawl "snapshot"
// every record carried before records held only their step's additions —
// fails the load rather than folding as a step that added nothing.
func decodeCheckpoint(payload []byte) (*Checkpoint, error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	cp := &Checkpoint{}
	if err := dec.Decode(cp); err != nil {
		return nil, fmt.Errorf("%w: %w", store.ErrCorrupt, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: data after the record", store.ErrCorrupt)
	}
	switch cp.Phase {
	case PhaseBFS, PhaseAugment, PhaseDone:
	default:
		return nil, fmt.Errorf("%w: unknown phase %q", store.ErrCorrupt, cp.Phase)
	}
	if a := cp.Added; a != nil && (hasNull(a.Startups) || hasNull(a.Users) || hasNull(a.CrunchBase) || hasNull(a.Facebook) || hasNull(a.Twitter)) {
		return nil, fmt.Errorf("%w: null entity among the additions", store.ErrCorrupt)
	}
	return cp, nil
}

func hasNull[T any](m map[string]*T) bool {
	for _, v := range m {
		if v == nil {
			return true
		}
	}
	return false
}
