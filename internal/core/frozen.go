package core

import (
	"context"
	"fmt"

	"crowdscope/internal/graph"
	"crowdscope/internal/snapshot"
	"crowdscope/internal/store"
)

// Frozen snapshots are the columnar artifact the snapshot-builder stage
// emits after a crawl persists: the merged companies and the merged
// investors in one checksummed blob. Loading one is a single sequential
// read per column — no per-record JSON decoding, no joins — followed by
// the same CSR build every freeze ends in, over the investor rows. The
// sections are laid out by the row types' column lists (columns.go).

// FrozenSnapshot is one crawl snapshot decoded from its frozen artifact.
type FrozenSnapshot struct {
	Snapshot  int
	Companies []Company
	Investors []Investor
	// Graph is the investment bipartite graph over Investors, built by
	// graph.FromRows.
	Graph *graph.FrozenBipartite
}

// FrozenNamespace returns the store namespace holding the given
// snapshot's frozen artifact.
func FrozenNamespace(snap int) string {
	return fmt.Sprintf("frozen/snap-%06d", snap)
}

// HasFrozen reports whether the snapshot has a committed frozen artifact.
func HasFrozen(st *store.Store, snap int) bool {
	return st.HasBlob(FrozenNamespace(snap))
}

// LatestFrozen returns the largest snapshot tag with a frozen artifact.
// It inspects namespace names only — no data is read. A store that holds
// none yet answers an error wrapping store.ErrNotExist: nothing is
// broken, the first round has simply not landed.
func LatestFrozen(st *store.Store) (int, error) {
	latest := -1
	for _, ns := range st.Namespaces() {
		var snap int
		if _, err := fmt.Sscanf(ns, "frozen/snap-%d", &snap); err == nil && st.HasBlob(ns) && snap > latest {
			latest = snap
		}
	}
	if latest < 0 {
		return 0, fmt.Errorf("core: no frozen snapshots in store: %w", store.ErrNotExist)
	}
	return latest, nil
}

// newFrozen is the one constructor of a FrozenSnapshot: ID-sorted
// company and investor rows in, the investment CSR built over the
// investor rows by graph.FromRows. A full freeze is a delta from empty
// and a decode is a freeze of the artifact's rows, so BuildFrozen,
// ApplyDelta and DecodeFrozen all end here. Investor IDs out of order
// or duplicated are rejected by the kernel.
func newFrozen(snap int, companies []Company, investors []Investor) (*FrozenSnapshot, error) {
	rows := make([]graph.AdjacencyRow, len(investors))
	for i, inv := range investors {
		rows[i] = graph.AdjacencyRow{Left: inv.ID, Rights: inv.Investments}
	}
	g, err := graph.FromRows(rows)
	if err != nil {
		return nil, err
	}
	return &FrozenSnapshot{Snapshot: snap, Companies: companies, Investors: investors, Graph: g}, nil
}

// BuildFrozen runs the snapshot-builder stage: load the snapshot's rows
// from the crawl namespaces one shard at a time (an unsharded store is
// one shard), build the CSR, encode everything into the columnar
// artifact, and commit it as the snapshot's frozen blob, replacing any
// existing one. Pass snap -1 to freeze the latest crawled snapshot.
// Returns the snapshot tag that was frozen. The context bounds the
// scans and the durable blob write: a canceled ctx abandons the build
// before commit, so a partial artifact is never visible.
func BuildFrozen(ctx context.Context, st *store.Store, snap int) (int, error) {
	snap, err := crawledSnapshot(ctx, st, snap)
	if err != nil {
		return 0, err
	}
	companies, err := LoadCompanies(ctx, st, snap)
	if err != nil {
		return 0, err
	}
	investors, err := LoadInvestors(ctx, st, snap)
	if err != nil {
		return 0, err
	}
	fs, err := newFrozen(snap, companies, investors)
	if err != nil {
		return 0, fmt.Errorf("core: freeze snapshot %d: %w", snap, err)
	}
	if err := CommitFrozen(ctx, st, fs); err != nil {
		return 0, err
	}
	return snap, nil
}

// LoadFrozenContext is LoadFrozen bounded by the caller's context.
// Cancellation is checked before the blob read; the decode itself is
// pure in-memory work and runs to completion once started.
func LoadFrozenContext(ctx context.Context, st *store.Store, snap int) (*FrozenSnapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: load frozen snapshot: %w", err)
	}
	return LoadFrozen(st, snap)
}

// LoadFrozen decodes the snapshot's frozen artifact. Pass snap -1 for
// the latest frozen snapshot.
func LoadFrozen(st *store.Store, snap int) (*FrozenSnapshot, error) {
	if snap < 0 {
		var err error
		snap, err = LatestFrozen(st)
		if err != nil {
			return nil, err
		}
	}
	data, format, err := st.GetBlob(FrozenNamespace(snap))
	if err != nil {
		return nil, err
	}
	if format != snapshot.FormatVersion {
		return nil, fmt.Errorf("core: frozen snapshot %d has format %d (reader supports %d)",
			snap, format, snapshot.FormatVersion)
	}
	fs, err := DecodeFrozen(data)
	if err != nil {
		return nil, fmt.Errorf("core: frozen snapshot %d: %w", snap, err)
	}
	if fs.Snapshot != snap {
		return nil, fmt.Errorf("%w: artifact tagged snapshot %d stored under snapshot %d",
			snapshot.ErrCorrupt, fs.Snapshot, snap)
	}
	return fs, nil
}

// EncodeFrozen serializes the snapshot's rows into the columnar
// artifact. The graph is not stored: it is a function of the investor
// rows, and DecodeFrozen rebuilds it.
func EncodeFrozen(fs *FrozenSnapshot) ([]byte, error) {
	e := snapshot.NewEncoder()
	e.Int64s("meta.snapshot", []int64{int64(fs.Snapshot)})
	companyColumns.encode(e, "co", fs.Companies)
	investorColumns.encode(e, "inv", fs.Investors)
	return e.Bytes()
}

// DecodeFrozen parses an artifact produced by EncodeFrozen and builds
// its graph with newFrozen. Artifacts written while the graph was still
// stored carry g.* sections; they are CRC-checked with the rest and
// otherwise ignored.
func DecodeFrozen(data []byte) (*FrozenSnapshot, error) {
	d, err := snapshot.NewDecoder(data)
	if err != nil {
		return nil, err
	}
	meta, err := d.Int64s("meta.snapshot")
	if err != nil {
		return nil, err
	}
	if len(meta) != 1 {
		return nil, fmt.Errorf("%w: meta.snapshot holds %d values", snapshot.ErrCorrupt, len(meta))
	}
	companies, err := companyColumns.decode(d, "co")
	if err != nil {
		return nil, err
	}
	investors, err := investorColumns.decode(d, "inv")
	if err != nil {
		return nil, err
	}
	fs, err := newFrozen(int(meta[0]), companies, investors)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
	}
	return fs, nil
}
