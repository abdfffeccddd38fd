package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"crowdscope/internal/index"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// QuerySource adapts a store for the query layer (it is a
// query.IndexedSource) and serves every frozen snapshot's decoded
// columns as virtual namespaces, so the interactive query language reads
// the frozen artifacts in place — no JSON rebuild, no per-row decode:
//
//	frozen/snap-NNNNNN/companies   one record per merged Company
//	frozen/snap-NNNNNN/investors   one record per merged Investor
//
// Longitudinal namespaces diff two frozen snapshots, one record per
// entity added, removed, or changed between the two versions (fields:
// ID, Change, Before, After — so predicates like After.Likes address
// the endpoint rows):
//
//	frozen/chain/A-B/companies     company changes between snapshots A and B
//	frozen/chain/A-B/investors     investor changes between snapshots A and B
//
// Any other namespace reads the underlying store's JSON records through
// query.JSONSource.
//
// Decoded snapshots, chain diffs and secondary indexes are cached (the
// artifacts are immutable, so entries never go stale), bounded to the
// few most recent. The zero-value struct literal &QuerySource{Store: st}
// is ready to use.
type QuerySource struct {
	Store *store.Store

	mu      sync.Mutex
	entries map[int]*frozenEntry

	// Chain diffs keyed "A-B", FIFO-bounded like the snapshot cache.
	chains     map[string]*ChainDiff
	chainOrder []string
}

var _ query.IndexedSource = (*QuerySource)(nil)

// maxCachedChainDiffs bounds the chain-diff cache: longitudinal
// exploration typically narrows on one version pair at a time.
const maxCachedChainDiffs = 2

// maxCachedSnapshots bounds the decoded-snapshot cache: the serving
// layer only ever queries the latest snapshot plus, briefly, the one it
// is hot-swapping away from.
const maxCachedSnapshots = 2

// frozenEntry caches one snapshot's query-facing state. An index load
// error is sticky — the blob is immutable, so retrying cannot help, and
// the planner's scan fallback must stay cheap.
type frozenEntry struct {
	// mu guards this entry's fields. Blob loads happen OUTSIDE both mu
	// and q.mu (lockdisc: a multi-second whole-artifact read must not
	// convoy queries against other snapshots); racing loaders decode the
	// same immutable artifact and the first install wins.
	mu sync.Mutex
	fs *FrozenSnapshot

	idx       map[string]*index.TableIndex
	idxErr    error
	idxLoaded bool
}

// ---- the row contract: decoded rows as query.Records ----

// table is a row type's accessor table: one typed reader per column,
// each yielding exactly what json.Unmarshal into any gives for that
// column of the row's JSON — float64 for every number, []any for a
// list (nil for a nil slice), map[string]any for a row. A frozen row
// type's table is derived from its column list; a field missing from
// the list fails TestTypedRecordsMatchDecodedJSON, which derives every
// path by reflection.
type table[R any] map[string]column[R]

// column is one entry of a table. A pointer column (a chain row's
// Before or After) also resolves the rest of a longer path.
type column[R any] struct {
	get func(*R) any
	sub func(rest []string) func(*R) any
}

// at resolves a field path to its reader once per read, not once per
// row. The empty path is the whole row; a path the row type does not
// have reads as nil.
func (t table[R]) at(path []string) func(*R) any {
	if len(path) == 0 {
		return func(r *R) any { return t.whole(r) }
	}
	col, ok := t[path[0]]
	switch {
	case !ok:
	case len(path) == 1:
		return col.get
	case col.sub != nil:
		return col.sub(path[1:])
	}
	return func(*R) any { return nil }
}

// whole is the row as a map of every column, the way json.Unmarshal
// gives an object.
func (t table[R]) whole(r *R) any {
	m := make(map[string]any, len(t))
	for name, col := range t {
		m[name] = col.get(r)
	}
	return m
}

// ref is the column of a pointer into rows of table t: nil while the
// pointer is, and behind it every path of t, the empty one (the whole
// row) included.
func ref[R, E any](t table[E], ptr func(*R) *E) column[R] {
	sub := func(rest []string) func(*R) any {
		get := t.at(rest)
		return func(r *R) any {
			if e := ptr(r); e != nil {
				return get(e)
			}
			return nil
		}
	}
	return column[R]{get: sub(nil), sub: sub}
}

var companyTable, investorTable = companyColumns.table(), investorColumns.table()

var companyChangeTable = table[CompanyChange]{
	"ID":     {get: func(c *CompanyChange) any { return c.ID }},
	"Change": {get: func(c *CompanyChange) any { return c.Change }},
	"Before": ref(companyTable, func(c *CompanyChange) *Company { return c.Before }),
	"After":  ref(companyTable, func(c *CompanyChange) *Company { return c.After }),
}

var investorChangeTable = table[InvestorChange]{
	"ID":     {get: func(c *InvestorChange) any { return c.ID }},
	"Change": {get: func(c *InvestorChange) any { return c.Change }},
	"Before": ref(investorTable, func(c *InvestorChange) *Investor { return c.Before }),
	"After":  ref(investorTable, func(c *InvestorChange) *Investor { return c.After }),
}

// readReq is one pass over a namespace: the statement's field paths and
// record callback, optionally narrowed to ascending row ids — or, for
// the JSON export, a payload callback instead.
type readReq struct {
	rows   []int32 // nil: every row
	fields [][]string
	fn     func(query.Record) error
	export func(payload []byte) error
}

// record is the query.Record over one row of a decoded table.
type record[R any] struct {
	row  *R
	cols []func(*R) any
}

func (r *record[R]) Value(i int) any { return r.cols[i](r.row) }

// cancelEvery is how many rows a pass reads between two looks at its
// context (before the first row, then every 64th).
const cancelEvery = 64

// readRows serves a read from a decoded table's rows.
func readRows[R any](ctx context.Context, ns string, rows []R, t table[R], r readReq) error {
	rec := &record[R]{cols: make([]func(*R) any, len(r.fields))}
	for i, path := range r.fields {
		rec.cols[i] = t.at(path)
	}
	visit := func() error { return r.fn(rec) }
	if r.export != nil {
		visit = func() error {
			payload, err := json.Marshal(rec.row)
			if err != nil {
				return fmt.Errorf("core: scan %s: %w", ns, err)
			}
			return r.export(payload)
		}
	}
	n := len(rows)
	if r.rows != nil {
		n = len(r.rows)
	}
	done := ctx.Done()
	for k, last := 0, -1; k < n; k++ {
		if k%cancelEvery == 0 {
			select {
			case <-done:
				return fmt.Errorf("core: scan %s: %w", ns, ctx.Err())
			default:
			}
		}
		i := k
		if r.rows != nil {
			i = int(r.rows[k])
		}
		if i <= last || i >= len(rows) {
			return fmt.Errorf("core: scan %s: row %d is not ascending within %d rows", ns, i, len(rows))
		}
		last, rec.row = i, &rows[i]
		if err := visit(); err != nil {
			return err
		}
	}
	return nil
}

// parseFrozenNS splits a virtual frozen namespace into its snapshot tag
// and table name.
func parseFrozenNS(ns string) (snap int, table string, ok bool) {
	n, _ := fmt.Sscanf(ns, "frozen/snap-%d/%s", &snap, &table)
	return snap, table, n == 2 && snap >= 0
}

// parseChainNS splits a longitudinal chain namespace into its version
// endpoints and table name.
func parseChainNS(ns string) (from, to int, table string, ok bool) {
	n, _ := fmt.Sscanf(ns, "frozen/chain/%d-%d/%s", &from, &to, &table)
	return from, to, table, n == 3 && from >= 0 && to >= 0
}

// entry returns the cache slot for a snapshot, evicting the oldest
// cached snapshot when the bound is exceeded. Caller holds q.mu.
func (q *QuerySource) entry(snap int) *frozenEntry {
	if q.entries == nil {
		q.entries = make(map[int]*frozenEntry)
	}
	ent, ok := q.entries[snap]
	if !ok {
		for len(q.entries) >= maxCachedSnapshots {
			oldest := -1
			for s := range q.entries {
				if oldest < 0 || s < oldest {
					oldest = s
				}
			}
			delete(q.entries, oldest)
		}
		ent = &frozenEntry{}
		q.entries[snap] = ent
	}
	return ent
}

// Frozen returns the decoded snapshot, loading it under ctx and caching
// it on first use: a replica's full reload installs this copy, the one
// its frozen/snap-N queries read.
func (q *QuerySource) Frozen(ctx context.Context, snap int) (*FrozenSnapshot, error) {
	return q.cache(snap, func() (*FrozenSnapshot, error) { return LoadFrozenContext(ctx, q.Store, snap) })
}

// frozen is Frozen without a context, for TableIndex (the planner's
// index lookup takes none).
func (q *QuerySource) frozen(snap int) (*FrozenSnapshot, error) {
	return q.cache(snap, func() (*FrozenSnapshot, error) { return LoadFrozen(q.Store, snap) })
}

// ApplyDelta returns snapshot snap by applying frozen/delta-snap onto
// base, cached as Frozen caches it (a snapshot already cached under snap
// is returned as is): a replica's delta refresh installs this copy.
func (q *QuerySource) ApplyDelta(ctx context.Context, base *FrozenSnapshot, snap int) (*FrozenSnapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: apply delta %d: %w", snap, err)
	}
	return q.cache(snap, func() (*FrozenSnapshot, error) {
		sd, err := LoadDelta(q.Store, snap)
		if err != nil {
			return nil, err
		}
		return ApplyDelta(base, sd)
	})
}

// cache returns the decoded snapshot, running load on a miss. Load
// errors are not cached: they are rare and retrying costs one blob
// read. The load runs with no lock held — concurrent first touches of
// the same snapshot may load it twice, and the first install wins — so
// a slow disk read never blocks queries against an already-cached
// snapshot.
func (q *QuerySource) cache(snap int, load func() (*FrozenSnapshot, error)) (*FrozenSnapshot, error) {
	if snap < 0 {
		return nil, fmt.Errorf("core: no frozen snapshot %d", snap)
	}
	q.mu.Lock()
	ent := q.entry(snap)
	q.mu.Unlock()

	ent.mu.Lock()
	fs := ent.fs
	ent.mu.Unlock()
	if fs != nil {
		return fs, nil
	}

	fs, err := load()
	if err != nil {
		return nil, err
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.fs == nil { // first install wins; a racing loader's work is discarded
		ent.fs = fs
	}
	return ent.fs, nil
}

// TableIndex returns the snapshot table's secondary indexes, (nil, nil)
// for anything unindexed (non-frozen namespaces, missing snapshots,
// snapshots frozen before indexing existed), and an error when an index
// blob is present but fails validation or indexes a different number of
// rows than the decoded snapshot's table holds (an idx-N left from an
// earlier freeze of snapshot N) — the planner's loud-fallback path.
func (q *QuerySource) TableIndex(ns string) (*index.TableIndex, error) {
	snap, table, ok := parseFrozenNS(ns)
	if !ok {
		return nil, nil
	}
	q.mu.Lock()
	ent := q.entry(snap)
	q.mu.Unlock()

	ent.mu.Lock()
	loaded, idx, idxErr := ent.idxLoaded, ent.idx, ent.idxErr
	ent.mu.Unlock()
	if !loaded {
		idx, idxErr = LoadIndex(q.Store, snap) // no lock held across the blob reads
		if idxErr == nil && idx != nil {
			fs, err := q.frozen(snap)
			if err != nil {
				return nil, err // not sticky: the snapshot load is retried
			}
			idxErr = checkIndexRows(fs, idx)
		}
		ent.mu.Lock()
		if ent.idxLoaded { // racing loader installed first; its result is canonical
			idx, idxErr = ent.idx, ent.idxErr
		} else {
			ent.idx, ent.idxErr, ent.idxLoaded = idx, idxErr, true
		}
		ent.mu.Unlock()
	}
	if idxErr != nil {
		return nil, idxErr
	}
	return idx[table], nil
}

// checkIndexRows refuses an index whose tables hold a different number
// of rows than the decoded snapshot's: an idx-N left beside a re-frozen
// snap-N by a crash between CommitFrozen's two puts.
func checkIndexRows(fs *FrozenSnapshot, idx map[string]*index.TableIndex) error {
	for _, t := range []struct {
		name string
		rows int
	}{{"companies", len(fs.Companies)}, {"investors", len(fs.Investors)}} {
		if ti := idx[t.name]; ti != nil && ti.Rows() != t.rows {
			return fmt.Errorf("core: snapshot %d index covers %d %s, the snapshot holds %d", fs.Snapshot, ti.Rows(), t.name, t.rows)
		}
	}
	return nil
}

// read serves one pass over a namespace: the decoded rows of a virtual
// one (loaded on first use), the store's JSON records for any other.
func (q *QuerySource) read(ctx context.Context, ns string, r readReq) error {
	if !strings.HasPrefix(ns, "frozen/") {
		switch {
		case r.export != nil:
			return q.Store.ScanContext(ctx, ns, r.export)
		case r.rows != nil:
			return fmt.Errorf("core: namespace %q has no row-addressed table", ns)
		}
		return query.JSONSource{Scanner: q.Store}.ReadRecords(ctx, ns, r.fields, r.fn)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: scan %s: %w", ns, err)
	}
	if strings.HasPrefix(ns, "frozen/chain/") {
		from, to, table, ok := parseChainNS(ns)
		if !ok {
			return fmt.Errorf("core: malformed chain namespace %q (want frozen/chain/A-B/{companies,investors}): %w", ns, store.ErrNotExist)
		}
		cd, err := q.chainFor(from, to)
		if err != nil {
			return err
		}
		switch table {
		case "companies":
			return readRows(ctx, ns, cd.Companies, companyChangeTable, r)
		case "investors":
			return readRows(ctx, ns, cd.Investors, investorChangeTable, r)
		}
		return unknownTable(table, ns)
	}
	snap, table, ok := parseFrozenNS(ns)
	if !ok {
		return fmt.Errorf("core: malformed frozen namespace %q (want frozen/snap-N/{companies,investors}): %w", ns, store.ErrNotExist)
	}
	fs, err := q.frozen(snap)
	if err != nil {
		return err
	}
	switch table {
	case "companies":
		return readRows(ctx, ns, fs.Companies, companyTable, r)
	case "investors":
		return readRows(ctx, ns, fs.Investors, investorTable, r)
	}
	return unknownTable(table, ns)
}

func unknownTable(table, ns string) error {
	return fmt.Errorf("core: unknown table %q in %s (want companies or investors): %w", table, ns, store.ErrNotExist)
}

// ReadRecords streams the namespace's records under the caller's
// context: cancellation is checked before the first record and then
// every 64, so a route deadline from the serving layer stops a scan
// mid-stream.
func (q *QuerySource) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(query.Record) error) error {
	return q.read(ctx, ns, readReq{fields: fields, fn: fn})
}

// ReadRows streams exactly the given rows of a virtual table, ascending
// — the same records ReadRecords serves for them, which keeps the index
// routes byte-identical to the scan route.
func (q *QuerySource) ReadRows(ctx context.Context, ns string, rows []int32, fields [][]string, fn func(query.Record) error) error {
	if rows == nil {
		rows = []int32{} // no rows selected, not "every row"
	}
	return q.read(ctx, ns, readReq{rows: rows, fields: fields, fn: fn})
}

// ScanContext is the JSON export of a namespace: one payload per record,
// marshalled on demand from the decoded columns for the virtual
// namespaces and forwarded from the store for the rest.
func (q *QuerySource) ScanContext(ctx context.Context, ns string, fn func(payload []byte) error) error {
	return q.read(ctx, ns, readReq{export: fn})
}

// chainFor returns the diff for a version pair, reading both endpoints
// through the snapshot cache on first use. Like a snapshot load, the
// build runs unlocked: racing builders derive identical diffs from
// immutable artifacts and the first install wins.
func (q *QuerySource) chainFor(from, to int) (*ChainDiff, error) {
	if from > to {
		return nil, fmt.Errorf("core: chain diff: from %d > to %d: %w", from, to, store.ErrNotExist)
	}
	key := fmt.Sprintf("%d-%d", from, to)
	q.mu.Lock()
	cd, ok := q.chains[key]
	q.mu.Unlock()
	if ok {
		return cd, nil
	}
	a, err := q.frozen(from)
	if err != nil {
		return nil, err
	}
	b, err := q.frozen(to)
	if err != nil {
		return nil, err
	}
	cd = diffSnapshots(a, b)
	q.mu.Lock()
	defer q.mu.Unlock()
	if cached, ok := q.chains[key]; ok { // racing builder installed first
		return cached, nil
	}
	if q.chains == nil {
		q.chains = make(map[string]*ChainDiff)
	}
	for len(q.chainOrder) >= maxCachedChainDiffs {
		delete(q.chains, q.chainOrder[0])
		q.chainOrder = q.chainOrder[1:]
	}
	q.chains[key] = cd
	q.chainOrder = append(q.chainOrder, key)
	return cd, nil
}
