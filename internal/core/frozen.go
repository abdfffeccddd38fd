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
// the same CSR build every freeze ends in, over the investor rows. It is
// what every analysis, query and serving replica reads.

// Company flag bits in the co.flags column.
const (
	flagRaising  = 1 << 0
	flagVideo    = 1 << 1
	flagFacebook = 1 << 2
	flagTwitter  = 1 << 3
	flagFunded   = 1 << 4
)

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
	encodeCompanyColumns(e, "co", fs.Companies)
	encodeInvestorColumns(e, "inv", fs.Investors)
	return e.Bytes()
}

// encodeCompanyColumns adds the company column family under the given
// section prefix — shared between the full snapshot artifact ("co") and
// the delta artifact's upsert sections ("delta.co"), so both carry the
// exact same column scheme.
func encodeCompanyColumns(e *snapshot.Encoder, prefix string, companies []Company) {
	nCo := len(companies)
	coIDs := make([]string, nCo)
	coNames := make([]string, nCo)
	coFlags := make([]uint8, nCo)
	coLikes := make([]int64, nCo)
	coTweets := make([]int64, nCo)
	coFollowers := make([]int64, nCo)
	coRounds := make([]int64, nCo)
	coRaised := make([]int64, nCo)
	for i, c := range companies {
		coIDs[i] = c.ID
		coNames[i] = c.Name
		var f uint8
		if c.Raising {
			f |= flagRaising
		}
		if c.HasVideo {
			f |= flagVideo
		}
		if c.HasFacebook {
			f |= flagFacebook
		}
		if c.HasTwitter {
			f |= flagTwitter
		}
		if c.Funded {
			f |= flagFunded
		}
		coFlags[i] = f
		coLikes[i] = int64(c.Likes)
		coTweets[i] = int64(c.Tweets)
		coFollowers[i] = int64(c.Followers)
		coRounds[i] = int64(c.RoundCount)
		coRaised[i] = c.TotalRaisedUSD
	}
	e.Strings(prefix+".ids", coIDs)
	e.Strings(prefix+".names", coNames)
	e.Uint8s(prefix+".flags", coFlags)
	e.Int64s(prefix+".likes", coLikes)
	e.Int64s(prefix+".tweets", coTweets)
	e.Int64s(prefix+".followers", coFollowers)
	e.Int64s(prefix+".rounds", coRounds)
	e.Int64s(prefix+".raised", coRaised)
}

// encodeInvestorColumns adds the investor column family under the given
// section prefix (see encodeCompanyColumns).
func encodeInvestorColumns(e *snapshot.Encoder, prefix string, investors []Investor) {
	nInv := len(investors)
	invIDs := make([]string, nInv)
	invFollows := make([]int64, nInv)
	invOffsets := make([]int64, nInv+1)
	var invFlat []string
	for i, inv := range investors {
		invIDs[i] = inv.ID
		invFollows[i] = int64(inv.Follows)
		invOffsets[i] = int64(len(invFlat))
		// Investment order is load-bearing: graph.FromRows numbers
		// right nodes by first appearance, so the flat table preserves
		// each investor's original list exactly.
		invFlat = append(invFlat, inv.Investments...)
	}
	invOffsets[nInv] = int64(len(invFlat))
	e.Strings(prefix+".ids", invIDs)
	e.Int64s(prefix+".follows", invFollows)
	e.Int64s(prefix+".investments.offsets", invOffsets)
	e.Strings(prefix+".investments.flat", invFlat)
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
	companies, err := decodeCompanyColumns(d, "co")
	if err != nil {
		return nil, err
	}
	investors, err := decodeInvestorColumns(d, "inv")
	if err != nil {
		return nil, err
	}
	fs, err := newFrozen(int(meta[0]), companies, investors)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
	}
	return fs, nil
}

// decodeCompanyColumns parses a company column family written by
// encodeCompanyColumns under the given section prefix. IDs must be
// strictly ascending: every reader of the rows — ApplyDelta's sorted
// merge, binary-searched ID lookups, the delta decoder — relies on it.
func decodeCompanyColumns(d *snapshot.Decoder, prefix string) ([]Company, error) {
	coIDs, err := d.Strings(prefix + ".ids")
	if err != nil {
		return nil, err
	}
	coNames, err := d.Strings(prefix + ".names")
	if err != nil {
		return nil, err
	}
	coFlags, err := d.Uint8s(prefix + ".flags")
	if err != nil {
		return nil, err
	}
	coLikes, err := d.Int64s(prefix + ".likes")
	if err != nil {
		return nil, err
	}
	coTweets, err := d.Int64s(prefix + ".tweets")
	if err != nil {
		return nil, err
	}
	coFollowers, err := d.Int64s(prefix + ".followers")
	if err != nil {
		return nil, err
	}
	coRounds, err := d.Int64s(prefix + ".rounds")
	if err != nil {
		return nil, err
	}
	coRaised, err := d.Int64s(prefix + ".raised")
	if err != nil {
		return nil, err
	}
	if !strictlyAscending(coIDs) {
		return nil, fmt.Errorf("%w: %s.ids are not strictly ascending", snapshot.ErrCorrupt, prefix)
	}
	nCo := len(coIDs)
	for name, n := range map[string]int{
		prefix + ".names": len(coNames), prefix + ".flags": len(coFlags),
		prefix + ".likes": len(coLikes), prefix + ".tweets": len(coTweets),
		prefix + ".followers": len(coFollowers), prefix + ".rounds": len(coRounds),
		prefix + ".raised": len(coRaised),
	} {
		if n != nCo {
			return nil, fmt.Errorf("%w: %s holds %d values for %d companies", snapshot.ErrCorrupt, name, n, nCo)
		}
	}
	companies := make([]Company, nCo)
	for i := range companies {
		f := coFlags[i]
		companies[i] = Company{
			ID:             coIDs[i],
			Name:           coNames[i],
			Raising:        f&flagRaising != 0,
			HasVideo:       f&flagVideo != 0,
			HasFacebook:    f&flagFacebook != 0,
			HasTwitter:     f&flagTwitter != 0,
			Funded:         f&flagFunded != 0,
			Likes:          int(coLikes[i]),
			Tweets:         int(coTweets[i]),
			Followers:      int(coFollowers[i]),
			RoundCount:     int(coRounds[i]),
			TotalRaisedUSD: coRaised[i],
		}
	}
	return companies, nil
}

// decodeInvestorColumns parses an investor column family written by
// encodeInvestorColumns under the given section prefix; IDs must be
// strictly ascending, as in decodeCompanyColumns.
func decodeInvestorColumns(d *snapshot.Decoder, prefix string) ([]Investor, error) {
	invIDs, err := d.Strings(prefix + ".ids")
	if err != nil {
		return nil, err
	}
	invFollows, err := d.Int64s(prefix + ".follows")
	if err != nil {
		return nil, err
	}
	invOffsets, err := d.Int64s(prefix + ".investments.offsets")
	if err != nil {
		return nil, err
	}
	invFlat, err := d.Strings(prefix + ".investments.flat")
	if err != nil {
		return nil, err
	}
	if !strictlyAscending(invIDs) {
		return nil, fmt.Errorf("%w: %s.ids are not strictly ascending", snapshot.ErrCorrupt, prefix)
	}
	nInv := len(invIDs)
	if len(invFollows) != nInv || len(invOffsets) != nInv+1 {
		return nil, fmt.Errorf("%w: investor columns disagree (%d ids, %d follows, %d offsets)",
			snapshot.ErrCorrupt, nInv, len(invFollows), len(invOffsets))
	}
	if invOffsets[0] != 0 || invOffsets[nInv] != int64(len(invFlat)) {
		return nil, fmt.Errorf("%w: investment offsets [%d,%d] disagree with %d entries",
			snapshot.ErrCorrupt, invOffsets[0], invOffsets[nInv], len(invFlat))
	}
	investors := make([]Investor, nInv)
	for i := range investors {
		lo, hi := invOffsets[i], invOffsets[i+1]
		if lo > hi || hi > int64(len(invFlat)) {
			return nil, fmt.Errorf("%w: invalid investment offsets [%d,%d) for investor %d",
				snapshot.ErrCorrupt, lo, hi, i)
		}
		investors[i] = Investor{
			ID:          invIDs[i],
			Investments: invFlat[lo:hi:hi],
			Follows:     int(invFollows[i]),
		}
	}
	return investors, nil
}
