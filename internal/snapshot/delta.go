package snapshot

import "fmt"

// Delta artifacts reuse the CSFROZ01 container: a delta blob is a normal
// section file whose sections carry the entities that changed between
// two consecutive frozen snapshots plus tombstones for the ones that
// disappeared. The blob is tagged DeltaFormatVersion in the store
// manifest, so a frozen-snapshot reader can never mistake one for a full
// artifact (and vice versa).
//
// The section-level layout lives with the writers in internal/core
// (delta.co.*, delta.inv.*, delta.drop.*); this file owns the one piece
// that is generic over the entity schema: the base/target metadata
// framing.

// DeltaFormatVersion is the current delta-artifact format, recorded in
// the store manifest next to the blob checksum (the container header
// still carries FormatVersion — the section framing is shared).
const DeltaFormatVersion = 1

// Delta metadata section names.
const (
	secDeltaBase   = "delta.base"
	secDeltaTarget = "delta.target"
)

// EncodeDeltaMeta adds the base→target metadata sections of a delta
// artifact: the snapshot the delta applies on top of and the snapshot it
// produces.
func EncodeDeltaMeta(e *Encoder, base, target int64) {
	e.Int64s(secDeltaBase, []int64{base})
	e.Int64s(secDeltaTarget, []int64{target})
}

// DecodeDeltaMeta reads the base/target metadata written by
// EncodeDeltaMeta, validating the single-value framing and that the
// delta advances exactly one snapshot (the only shape the writer emits —
// anything else is a corrupt or foreign artifact).
func DecodeDeltaMeta(d *Decoder) (base, target int64, err error) {
	bases, err := d.Int64s(secDeltaBase)
	if err != nil {
		return 0, 0, err
	}
	targets, err := d.Int64s(secDeltaTarget)
	if err != nil {
		return 0, 0, err
	}
	if len(bases) != 1 || len(targets) != 1 {
		return 0, 0, fmt.Errorf("%w: delta meta holds %d base / %d target values",
			ErrCorrupt, len(bases), len(targets))
	}
	if targets[0] != bases[0]+1 || bases[0] < 0 {
		return 0, 0, fmt.Errorf("%w: delta claims base %d target %d (must advance exactly one snapshot)",
			ErrCorrupt, bases[0], targets[0])
	}
	return bases[0], targets[0], nil
}
