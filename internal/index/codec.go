package index

import (
	"errors"
	"fmt"
	"sort"

	"crowdscope/internal/snapshot"
)

// FormatVersion is the secondary-index blob format, recorded in the
// store manifest next to the blob checksum (independent of the frozen
// snapshot's own snapshot.FormatVersion).
const FormatVersion = 1

// Section naming inside the CSFROZ01 container. Every index section is
// prefixed so an index blob can never be confused with a snapshot
// artifact's columns:
//
//	idx.tables                   string table of indexed table names
//	idx.<table>.rows             int64[1], the table's row count
//	idx.<table>.bools            string table of postings keys
//	idx.<table>.bool.<key>       int32 postings (sorted rows where true)
//	idx.<table>.ints             string table of ordering keys
//	idx.<table>.order.<key>.perm int32 permutation, rows by ascending value
//	idx.<table>.order.<key>.vals int64 values in permutation order
const SectionPrefix = "idx."

// ErrInvalid reports a structurally inconsistent index: sections decode
// cleanly (CRCs pass) but violate an index invariant — unsorted
// postings, an incomplete permutation, out-of-range rows, a row count
// no ordering holds. Loud failure here is what lets the query planner
// fall back to a scan instead of returning wrong rows.
var ErrInvalid = errors.New("index: invalid index structure")

// Encode serializes the table indexes into one CSFROZ01 artifact.
// Tables and keys encode in sorted order, so the bytes are a pure
// function of the indexed content.
func Encode(tables []*TableIndex) ([]byte, error) {
	e := snapshot.NewEncoder()
	names := make([]string, 0, len(tables))
	byName := make(map[string]*TableIndex, len(tables))
	for _, ti := range tables {
		if _, dup := byName[ti.name]; dup {
			return nil, fmt.Errorf("index: duplicate table %q", ti.name)
		}
		names = append(names, ti.name)
		byName[ti.name] = ti
	}
	sort.Strings(names)
	e.Strings(SectionPrefix+"tables", names)
	for _, name := range names {
		ti := byName[name]
		p := SectionPrefix + name + "."
		e.Int64s(p+"rows", []int64{int64(ti.rows)})
		boolKeys := ti.boolKeys()
		e.Strings(p+"bools", boolKeys)
		for _, key := range boolKeys {
			e.Int32s(p+"bool."+key, ti.bools[key].Rows())
		}
		intKeys := ti.orderKeys()
		e.Strings(p+"ints", intKeys)
		for _, key := range intKeys {
			o := ti.orders[key]
			e.Int32s(p+"order."+key+".perm", o.perm)
			e.Int64s(p+"order."+key+".vals", o.vals)
		}
	}
	data, err := e.Bytes()
	if err != nil {
		return nil, err
	}
	need := 0
	for _, ti := range tables {
		need += bitmapBytes(len(ti.bools), ti.rows)
	}
	if need > len(data) {
		return nil, fmt.Errorf("index: %d bytes of boolean bitmaps exceed the %d-byte blob Decode would accept them from", need, len(data))
	}
	return data, nil
}

// bitmapBytes is what decoding a table's boolean keys allocates: one
// ⌈rows/64⌉-word bitmap per key.
func bitmapBytes(keys, rows int) int { return keys * 8 * ((rows + 63) / 64) }

// Decode parses and fully validates an artifact produced by Encode,
// returning the indexes by table name. Any CRC failure surfaces as
// snapshot.ErrCorrupt from the container decoder; any structural
// violation surfaces as ErrInvalid. Either way the caller gets a loud
// error, never a silently wrong index. Each postings list becomes its
// key's row bitmap. A table's row count must match its orderings'
// length, no key may repeat, and the bitmaps of all tables together may
// take no more bytes than data holds (Encode refuses to write more), so
// what decoding allocates is paid for by input bytes.
func Decode(data []byte) (map[string]*TableIndex, error) {
	d, err := snapshot.NewDecoder(data)
	if err != nil {
		return nil, err
	}
	names, err := d.Strings(SectionPrefix + "tables")
	if err != nil {
		return nil, err
	}
	out := make(map[string]*TableIndex, len(names))
	budget := len(data) // bytes left for boolean bitmaps
	for _, name := range names {
		if _, dup := out[name]; dup || name == "" {
			return nil, fmt.Errorf("%w: duplicate or empty table name %q", ErrInvalid, name)
		}
		ti, err := decodeTable(d, name, &budget)
		if err != nil {
			return nil, err
		}
		out[name] = ti
	}
	return out, nil
}

func decodeTable(d *snapshot.Decoder, name string, budget *int) (*TableIndex, error) {
	p := SectionPrefix + name + "."
	rowsCol, err := d.Int64s(p + "rows")
	if err != nil {
		return nil, err
	}
	if len(rowsCol) != 1 || rowsCol[0] < 0 {
		return nil, fmt.Errorf("%w: table %q row count section holds %d values", ErrInvalid, name, len(rowsCol))
	}
	boolKeys, err := d.Strings(p + "bools")
	if err != nil {
		return nil, err
	}
	intKeys, err := d.Strings(p + "ints")
	if err != nil {
		return nil, err
	}
	for _, keys := range [][]string{boolKeys, intKeys} {
		if dup, ok := repeated(keys); ok {
			return nil, fmt.Errorf("%w: table %q names key %q twice", ErrInvalid, name, dup)
		}
	}
	// The row count is only a claim until an ordering's permutation
	// spells it out: every bitmap below is sized by it, so a table with
	// rows but no ordering could make a few bytes allocate gigabytes.
	if rowsCol[0] > 0 && len(intKeys) == 0 {
		return nil, fmt.Errorf("%w: table %q claims %d rows but has no ordering to hold them", ErrInvalid, name, rowsCol[0])
	}
	rows := int(rowsCol[0])
	ti := &TableIndex{
		name:   name,
		rows:   rows,
		bools:  make(map[string]Bitmap, len(boolKeys)),
		orders: make(map[string]*order, len(intKeys)),
	}

	for _, key := range intKeys {
		perm, err := d.Int32s(p + "order." + key + ".perm")
		if err != nil {
			return nil, err
		}
		vals, err := d.Int64s(p + "order." + key + ".vals")
		if err != nil {
			return nil, err
		}
		if int64(len(perm)) != rowsCol[0] || len(vals) != len(perm) {
			return nil, fmt.Errorf("%w: table %q ordering %q has %d/%d entries for %d rows",
				ErrInvalid, name, key, len(perm), len(vals), rowsCol[0])
		}
		seen := newBitmap(rows)
		for i, r := range perm {
			if int(r) < 0 || int(r) >= rows || seen.has(r) {
				return nil, fmt.Errorf("%w: table %q ordering %q perm is not a permutation of %d rows",
					ErrInvalid, name, key, rows)
			}
			seen.set(r)
			if i > 0 {
				if vals[i-1] > vals[i] {
					return nil, fmt.Errorf("%w: table %q ordering %q values not sorted", ErrInvalid, name, key)
				}
				if vals[i-1] == vals[i] && perm[i-1] >= r {
					// Tie order is load-bearing: top-k equivalence with the
					// scan path's stable sort depends on ascending row ids
					// within equal values.
					return nil, fmt.Errorf("%w: table %q ordering %q breaks tie order at position %d",
						ErrInvalid, name, key, i)
				}
			}
		}
		ti.orders[key] = &order{perm: perm, vals: vals}
	}

	// rows is now the length of a decoded permutation, so this cannot
	// overflow.
	if *budget -= bitmapBytes(len(boolKeys), rows); *budget < 0 {
		return nil, fmt.Errorf("%w: table %q boolean bitmaps exceed the blob's size", ErrInvalid, name)
	}
	for _, key := range boolKeys {
		pos, err := d.Int32s(p + "bool." + key)
		if err != nil {
			return nil, err
		}
		b := newBitmap(rows)
		for i, r := range pos {
			if int(r) < 0 || int(r) >= rows || (i > 0 && pos[i-1] >= r) {
				return nil, fmt.Errorf("%w: table %q postings %q not strictly increasing within %d rows",
					ErrInvalid, name, key, rows)
			}
			b.set(r)
		}
		ti.bools[key] = b
	}
	return ti, nil
}

// repeated returns a name that occurs more than once in names.
func repeated(names []string) (string, bool) {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return n, true
		}
		seen[n] = true
	}
	return "", false
}
