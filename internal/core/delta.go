package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"crowdscope/internal/snapshot"
	"crowdscope/internal/store"
)

// Delta snapshots make the longitudinal crawl incremental: after round
// 1, each crawl emits a frozen/delta-N artifact carrying only the
// entities that changed since round N-1 (full rows, same column scheme
// as the snapshot artifact) plus tombstones for the ones that
// disappeared. Applying the delta onto the previous frozen snapshot
// produces the next one without re-reading the store — and the result
// is bit-identical to BuildFrozen over the round's persisted records,
// which is what the delta==refreeze equivalence suite gates.

// ErrDeltaConflict reports a delta that does not fit the snapshot it is
// being applied to: wrong base version, or a tombstone referencing an
// entity the base never had. Conflicts are loud — silently dropping a
// tombstone would fork the chain from what BuildFrozen produces.
var ErrDeltaConflict = errors.New("core: delta conflicts with its base snapshot")

// SnapshotDelta is the decoded delta between two consecutive frozen
// snapshots. Upserts carry complete merged rows (an entity is either
// absent or fully specified — there are no partial-field patches) and
// all four lists are sorted by ID, which the codec validates so a
// corrupted artifact cannot smuggle an out-of-order merge.
type SnapshotDelta struct {
	Base   int // the snapshot this applies on top of
	Target int // the snapshot it produces; always Base+1

	CompanyUpserts  []Company
	InvestorUpserts []Investor
	CompanyDrops    []string
	InvestorDrops   []string
}

// DeltaNamespace returns the store namespace holding the delta that
// produces the given snapshot. Like IndexNamespace it must not share the
// "frozen/snap-" prefix LatestFrozen parses.
func DeltaNamespace(snap int) string {
	return fmt.Sprintf("frozen/delta-%06d", snap)
}

// encodeDelta serializes the delta into a CSFROZ01 artifact: the
// base/target metadata, the upserted entities in the snapshot column
// scheme under the delta.co/delta.inv prefixes, and the tombstone ID
// tables. Every section carries the container's per-section CRC32C.
func encodeDelta(sd *SnapshotDelta) ([]byte, error) {
	if sd.Target != sd.Base+1 {
		return nil, fmt.Errorf("core: delta %d->%d must advance exactly one snapshot", sd.Base, sd.Target)
	}
	e := snapshot.NewEncoder()
	snapshot.EncodeDeltaMeta(e, int64(sd.Base), int64(sd.Target))
	companyColumns.encode(e, "delta.co", sd.CompanyUpserts)
	investorColumns.encode(e, "delta.inv", sd.InvestorUpserts)
	e.Strings("delta.drop.co", sd.CompanyDrops)
	e.Strings("delta.drop.inv", sd.InvestorDrops)
	return e.Bytes()
}

// decodeDelta parses an artifact produced by encodeDelta, validating
// the framing the apply kernel depends on: strictly ascending IDs in
// every list (the column decoders check the upserts), and no ID both
// upserted and dropped.
func decodeDelta(data []byte) (*SnapshotDelta, error) {
	d, err := snapshot.NewDecoder(data)
	if err != nil {
		return nil, err
	}
	base, target, err := snapshot.DecodeDeltaMeta(d)
	if err != nil {
		return nil, err
	}
	sd := &SnapshotDelta{Base: int(base), Target: int(target)}
	sd.CompanyUpserts, err = companyColumns.decode(d, "delta.co")
	if err != nil {
		return nil, err
	}
	sd.InvestorUpserts, err = investorColumns.decode(d, "delta.inv")
	if err != nil {
		return nil, err
	}
	sd.CompanyDrops, err = d.Strings("delta.drop.co")
	if err != nil {
		return nil, err
	}
	sd.InvestorDrops, err = d.Strings("delta.drop.inv")
	if err != nil {
		return nil, err
	}
	for _, check := range []struct {
		name    string
		upserts []string
		drops   []string
	}{
		{name: "company", upserts: companyColumns.keys(sd.CompanyUpserts), drops: sd.CompanyDrops},
		{name: "investor", upserts: investorColumns.keys(sd.InvestorUpserts), drops: sd.InvestorDrops},
	} {
		if !strictlyAscending(check.drops) {
			return nil, fmt.Errorf("%w: %s tombstones are not strictly ascending", snapshot.ErrCorrupt, check.name)
		}
		for _, id := range check.drops {
			if _, dup := slices.BinarySearch(check.upserts, id); dup {
				return nil, fmt.Errorf("%w: %s %q is both upserted and dropped", snapshot.ErrCorrupt, check.name, id)
			}
		}
	}
	return sd, nil
}

func strictlyAscending(ids []string) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}

// LoadDelta loads and validates the delta producing the given snapshot.
func LoadDelta(st *store.Store, snap int) (*SnapshotDelta, error) {
	data, format, err := st.GetBlob(DeltaNamespace(snap))
	if err != nil {
		return nil, err
	}
	if format != snapshot.DeltaFormatVersion {
		return nil, fmt.Errorf("core: delta %d has format %d (reader supports %d)",
			snap, format, snapshot.DeltaFormatVersion)
	}
	sd, err := decodeDelta(data)
	if err != nil {
		return nil, fmt.Errorf("core: delta %d: %w", snap, err)
	}
	if sd.Target != snap {
		return nil, fmt.Errorf("%w: artifact targets snapshot %d but is stored under snapshot %d",
			snapshot.ErrCorrupt, sd.Target, snap)
	}
	return sd, nil
}

// investorEqual compares merged investors including the load-bearing
// investment order (Company is comparable, so == suffices there).
func investorEqual(a, b Investor) bool {
	return a.ID == b.ID && a.Follows == b.Follows && slices.Equal(a.Investments, b.Investments)
}

// DiffFrozen computes the delta turning prev into next: full-row
// upserts for added or changed entities and tombstones for removed ones.
func DiffFrozen(prev, next *FrozenSnapshot) *SnapshotDelta {
	sd := &SnapshotDelta{Base: prev.Snapshot, Target: next.Snapshot}
	sd.CompanyUpserts, sd.CompanyDrops = diffRows(prev.Companies, next.Companies, companyColumns.key, companyEqual)
	sd.InvestorUpserts, sd.InvestorDrops = diffRows(prev.Investors, next.Investors, investorColumns.key, investorEqual)
	return sd
}

func companyEqual(a, b Company) bool { return a == b }

// diffRows is the inverse of mergeSorted: the upserts and tombstones
// that turn the ID-sorted rows prev into next.
func diffRows[T any](prev, next []T, id func(*T) string, equal func(a, b T) bool) (upserts []T, drops []string) {
	diffSorted(prev, next, id, equal, func(before, after *T) {
		if after == nil {
			drops = append(drops, id(before))
		} else {
			upserts = append(upserts, *after)
		}
	})
	return upserts, drops
}

// diffSorted walks two ID-sorted row lists in step and calls fn, in ID
// order, for each row that differs: (nil, after) for an added row,
// (before, nil) for a removed one, (before, after) for a changed one.
func diffSorted[T any](prev, next []T, id func(*T) string, equal func(a, b T) bool, fn func(before, after *T)) {
	i, j := 0, 0
	for i < len(prev) || j < len(next) {
		switch {
		case i == len(prev) || j < len(next) && id(&next[j]) < id(&prev[i]):
			fn(nil, &next[j])
			j++
		case j == len(next) || id(&prev[i]) < id(&next[j]):
			fn(&prev[i], nil)
			i++
		default:
			if !equal(prev[i], next[j]) {
				fn(&prev[i], &next[j])
			}
			i++
			j++
		}
	}
}

// mergeSorted applies sorted upserts and drops onto a sorted base list.
// A tombstone must name an existing entity and an upsert keeps the list
// sorted by construction; any mismatch is an ErrDeltaConflict.
func mergeSorted[T any](kind string, base []T, id func(*T) string, upserts []T, drops []string) ([]T, error) {
	out := make([]T, 0, len(base)+len(upserts))
	i, u, dr := 0, 0, 0
	for i < len(base) || u < len(upserts) {
		var takeUpsert bool
		switch {
		case i >= len(base):
			takeUpsert = true
		case u >= len(upserts):
			takeUpsert = false
		default:
			takeUpsert = id(&upserts[u]) <= id(&base[i])
		}
		if takeUpsert {
			if i < len(base) && id(&base[i]) == id(&upserts[u]) {
				i++ // replaced
			}
			out = append(out, upserts[u])
			u++
			continue
		}
		if dr < len(drops) && drops[dr] == id(&base[i]) {
			dr++
			i++ // dropped
			continue
		}
		if dr < len(drops) && drops[dr] < id(&base[i]) {
			return nil, fmt.Errorf("%w: tombstone for unknown %s %q", ErrDeltaConflict, kind, drops[dr])
		}
		out = append(out, base[i])
		i++
	}
	if dr < len(drops) {
		return nil, fmt.Errorf("%w: tombstone for unknown %s %q", ErrDeltaConflict, kind, drops[dr])
	}
	return out, nil
}

// graphNeutral reports whether applying sd leaves the investment CSR
// untouched: no investor tombstones, and every investor upsert replaces
// an existing investor with an identical investment row. Between-crawl
// churn is mostly engagement counters (likes, tweets, follow counts)
// that never reach the graph, so this is the common case — and the CSR
// rebuild is the dominant cost of an apply, O(world) regardless of how
// small the delta is.
func graphNeutral(prev *FrozenSnapshot, sd *SnapshotDelta) bool {
	if prev.Graph == nil || len(sd.InvestorDrops) > 0 {
		return false
	}
	for _, up := range sd.InvestorUpserts {
		i, ok := slices.BinarySearchFunc(prev.Investors, up.ID, func(v Investor, id string) int {
			return strings.Compare(v.ID, id)
		})
		if !ok || !slices.Equal(prev.Investors[i].Investments, up.Investments) {
			return false
		}
	}
	return true
}

// ApplyDelta applies a delta onto its base snapshot, producing the
// target snapshot in memory: entity lists via a sorted merge, then the
// same constructor a freeze ends in (newFrozen) over the retained rows
// (which alias the base artifact's columns) plus the upserted ones. The
// result is bit-identical to BuildFrozen of the target round.
//
// When the delta is graph-neutral — counter churn only, no investment
// row touched — the base snapshot's graph is reused as-is instead of
// being rebuilt. The frozen graph is immutable after construction, so
// sharing the pointer is safe, and the reuse is exactly what makes the
// delta hot-swap path cheaper than a full artifact reload.
func ApplyDelta(prev *FrozenSnapshot, sd *SnapshotDelta) (*FrozenSnapshot, error) {
	if prev.Snapshot != sd.Base {
		return nil, fmt.Errorf("%w: delta %d->%d applied to snapshot %d",
			ErrDeltaConflict, sd.Base, sd.Target, prev.Snapshot)
	}
	neutral := graphNeutral(prev, sd)
	companies, err := mergeSorted("company", prev.Companies, companyColumns.key, sd.CompanyUpserts, sd.CompanyDrops)
	if err != nil {
		return nil, err
	}
	investors, err := mergeSorted("investor", prev.Investors, investorColumns.key, sd.InvestorUpserts, sd.InvestorDrops)
	if err != nil {
		return nil, err
	}
	if neutral {
		return &FrozenSnapshot{Snapshot: sd.Target, Companies: companies, Investors: investors, Graph: prev.Graph}, nil
	}
	next, err := newFrozen(sd.Target, companies, investors)
	if err != nil {
		return nil, fmt.Errorf("core: apply delta %d->%d: %w", sd.Base, sd.Target, err)
	}
	return next, nil
}

// CommitDelta durably commits one incremental round: the delta artifact
// first, then the applied target snapshot (and its index blob) via
// CommitFrozen. A crash between the two leaves the delta behind with no
// target snapshot; RecoverChain finds and re-applies it, so resume
// converges on the same chain as a fault-free run. Returns the applied
// target snapshot.
func CommitDelta(ctx context.Context, st *store.Store, prev *FrozenSnapshot, sd *SnapshotDelta) (*FrozenSnapshot, error) {
	data, err := encodeDelta(sd)
	if err != nil {
		return nil, err
	}
	next, err := ApplyDelta(prev, sd)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: commit delta %d->%d: %w", sd.Base, sd.Target, err)
	}
	if err := st.PutBlob(DeltaNamespace(sd.Target), snapshot.DeltaFormatVersion, data); err != nil {
		return nil, err
	}
	if err := CommitFrozen(ctx, st, next); err != nil {
		return nil, err
	}
	return next, nil
}

// RecoverChain completes interrupted delta commits: every persisted
// delta whose target snapshot is missing is re-applied (in ascending
// order, so consecutive pending deltas chain) and its target committed.
// It returns the recovered snapshot tags; an empty store or a fully
// committed chain is a cheap no-op.
func RecoverChain(ctx context.Context, st *store.Store) ([]int, error) {
	var pending []int
	for _, ns := range st.Namespaces() {
		var snap int
		if _, err := fmt.Sscanf(ns, "frozen/delta-%d", &snap); err == nil && st.HasBlob(ns) && !HasFrozen(st, snap) {
			pending = append(pending, snap)
		}
	}
	sort.Ints(pending)
	var recovered []int
	for _, snap := range pending {
		sd, err := LoadDelta(st, snap)
		if err != nil {
			return recovered, fmt.Errorf("core: recover chain: %w", err)
		}
		prev, err := LoadFrozen(st, sd.Base)
		if err != nil {
			return recovered, fmt.Errorf("core: recover chain: delta %d has no base snapshot: %w", snap, err)
		}
		next, err := ApplyDelta(prev, sd)
		if err != nil {
			return recovered, fmt.Errorf("core: recover chain: %w", err)
		}
		if err := CommitFrozen(ctx, st, next); err != nil {
			return recovered, fmt.Errorf("core: recover chain: %w", err)
		}
		recovered = append(recovered, snap)
	}
	return recovered, nil
}
