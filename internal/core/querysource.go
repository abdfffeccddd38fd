package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
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

// getter reads one resolved field path off a row.
type getter func(row reflect.Value) any

// fieldGetter resolves a field path into values of type t — structs,
// whose fields go by their Go names as they do in the rows' JSON, and
// pointers to them — to a getter yielding exactly what json.Unmarshal
// into any would from the value's JSON. It is derived from the same
// struct definitions json.Marshal reads, so a column added to a row type
// is queryable without an accessor to forget (one renamed by a json tag
// fails TestTypedRecordsMatchDecodedJSON). A path t does not have reads
// as nil.
func fieldGetter(t reflect.Type, path []string) getter {
	switch {
	case len(path) == 0:
		return decoded
	case t.Kind() == reflect.Pointer: // a chain row's Before or After
		inner := fieldGetter(t.Elem(), path)
		return func(v reflect.Value) any {
			if v.IsNil() {
				return nil
			}
			return inner(v.Elem())
		}
	case t.Kind() == reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Name == path[0] {
				inner := fieldGetter(t.Field(i).Type, path[1:])
				return func(v reflect.Value) any { return inner(v.Field(i)) }
			}
		}
	}
	return func(reflect.Value) any { return nil }
}

// decoded is v as it would come back from json.Unmarshal into any after
// a json.Marshal: float64 for every number, nil for a nil pointer or
// slice, []any for a list, map[string]any for a struct.
func decoded(v reflect.Value) any {
	switch {
	case v.Kind() == reflect.String:
		return v.String()
	case v.Kind() == reflect.Bool:
		return v.Bool()
	case v.CanInt():
		return float64(v.Int())
	case v.Kind() == reflect.Pointer && !v.IsNil():
		return decoded(v.Elem())
	case v.Kind() == reflect.Slice && !v.IsNil():
		out := make([]any, v.Len())
		for i := range out {
			out[i] = decoded(v.Index(i))
		}
		return out
	case v.Kind() == reflect.Struct:
		m := make(map[string]any, v.NumField())
		for i := 0; i < v.NumField(); i++ {
			m[v.Type().Field(i).Name] = decoded(v.Field(i))
		}
		return m
	}
	return nil
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

// typedRecord is the query.Record over one decoded row: the field paths
// resolved to getters once per read, not once per row.
type typedRecord struct {
	row  reflect.Value
	cols []getter
}

func (r *typedRecord) Value(i int) any { return r.cols[i](r.row) }

// readTable serves a read from a decoded table (a slice of row
// structs), checking the caller's context between rows.
func readTable(ctx context.Context, ns string, table reflect.Value, r readReq) error {
	rec := &typedRecord{cols: make([]getter, len(r.fields))}
	for i, path := range r.fields {
		rec.cols[i] = fieldGetter(table.Type().Elem(), path)
	}
	visit := func() error { return r.fn(rec) }
	if r.export != nil {
		visit = func() error {
			payload, err := json.Marshal(rec.row.Addr().Interface())
			if err != nil {
				return fmt.Errorf("core: scan %s: %w", ns, err)
			}
			return r.export(payload)
		}
	}
	n := table.Len()
	if r.rows != nil {
		n = len(r.rows)
	}
	for k, last := 0, -1; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: scan %s: %w", ns, err)
		}
		i := k
		if r.rows != nil {
			i = int(r.rows[k])
		}
		if i <= last || i >= table.Len() {
			return fmt.Errorf("core: scan %s: row %d is not ascending within %d rows", ns, i, table.Len())
		}
		last, rec.row = i, table.Index(i)
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
	var table string
	var companies, investors any
	if strings.HasPrefix(ns, "frozen/chain/") {
		from, to, name, ok := parseChainNS(ns)
		if !ok {
			return fmt.Errorf("core: malformed chain namespace %q (want frozen/chain/A-B/{companies,investors})", ns)
		}
		cd, err := q.chainFor(from, to)
		if err != nil {
			return err
		}
		table, companies, investors = name, cd.Companies, cd.Investors
	} else {
		snap, name, ok := parseFrozenNS(ns)
		if !ok {
			return fmt.Errorf("core: malformed frozen namespace %q (want frozen/snap-N/{companies,investors})", ns)
		}
		fs, err := q.frozen(snap)
		if err != nil {
			return err
		}
		table, companies, investors = name, fs.Companies, fs.Investors
	}
	switch table {
	case "companies":
		return readTable(ctx, ns, reflect.ValueOf(companies), r)
	case "investors":
		return readTable(ctx, ns, reflect.ValueOf(investors), r)
	}
	return fmt.Errorf("core: unknown table %q in %s (want companies or investors)", table, ns)
}

// ReadRecords streams the namespace's records under the caller's
// context: cancellation is checked between records, so a route deadline
// from the serving layer stops a scan mid-stream.
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
		return nil, fmt.Errorf("core: chain diff: from %d > to %d", from, to)
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
