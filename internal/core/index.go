package core

import (
	"context"
	"fmt"

	"crowdscope/internal/index"
	"crowdscope/internal/snapshot"
	"crowdscope/internal/store"
)

// Secondary indexes ride alongside each frozen snapshot as a sibling
// blob: postings lists (row bitmaps once loaded) for the boolean
// company attributes and sorted orderings for the numeric columns,
// keyed by the canonical query expressions the planner matches against.
// The index blob is committed after the snapshot artifact, so a crash
// between the two leaves a perfectly queryable (merely unindexed)
// snapshot behind — or, on a re-freeze, the earlier index, which
// QuerySource refuses when its row counts differ.

// IndexNamespace returns the store namespace holding the snapshot's
// secondary-index blob. It deliberately does not share the
// "frozen/snap-" prefix: LatestFrozen discovers snapshots by parsing
// that prefix, and an index blob must never masquerade as one.
func IndexNamespace(snap int) string {
	return fmt.Sprintf("frozen/idx-%06d", snap)
}

// CommitFrozen commits an in-memory frozen snapshot: the columnar
// artifact first, then its secondary-index blob. The context bounds the
// durable writes; a canceled ctx abandons the commit before either blob
// is visible.
func CommitFrozen(ctx context.Context, st *store.Store, fs *FrozenSnapshot) error {
	data, err := EncodeFrozen(fs)
	if err != nil {
		return err
	}
	idxData, err := EncodeIndexes(fs)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: freeze snapshot %d: %w", fs.Snapshot, err)
	}
	if err := st.PutBlob(FrozenNamespace(fs.Snapshot), snapshot.FormatVersion, data); err != nil {
		return err
	}
	return st.PutBlob(IndexNamespace(fs.Snapshot), index.FormatVersion, idxData)
}

// EncodeIndexes builds and serializes the snapshot's secondary indexes.
// Keys are canonical query expressions over the virtual frozen
// namespaces, which is what lets the planner push `WHERE Raising AND
// Likes > 100` or `LEN(Investments) >= 3` into probes by string match.
func EncodeIndexes(fs *FrozenSnapshot) ([]byte, error) {
	coIdx, err := index.BuildTable(companyColumns.index("companies", fs.Companies))
	if err != nil {
		return nil, err
	}
	invIdx, err := index.BuildTable(investorColumns.index("investors", fs.Investors))
	if err != nil {
		return nil, err
	}
	return index.Encode([]*index.TableIndex{coIdx, invIdx})
}

// LoadIndex loads and validates the snapshot's secondary indexes by
// table name. A snapshot without an index blob returns (nil, nil) — the
// planner treats that as "not indexed" and scans. A present-but-invalid
// blob returns an error: corruption is loud, never a wrong answer.
func LoadIndex(st *store.Store, snap int) (map[string]*index.TableIndex, error) {
	ns := IndexNamespace(snap)
	if !st.HasBlob(ns) {
		return nil, nil
	}
	data, format, err := st.GetBlob(ns)
	if err != nil {
		return nil, err
	}
	if format != index.FormatVersion {
		return nil, fmt.Errorf("core: snapshot %d index has format %d (reader supports %d)",
			snap, format, index.FormatVersion)
	}
	idx, err := index.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot %d index: %w", snap, err)
	}
	return idx, nil
}
