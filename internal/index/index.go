package index

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"crowdscope/internal/parallel"
)

// Table is the columnar input to BuildTable: named boolean and integer
// columns over a fixed row count. Keys are canonical query expressions
// ("Raising", "Likes", "LEN(Investments)") so the planner can match
// WHERE conjuncts against index entries by string comparison.
type Table struct {
	Name  string
	Rows  int
	Bools map[string][]bool
	Ints  map[string][]int64
}

// TableIndex is one table's persisted secondary indexes: a row bitmap
// for each boolean attribute and a sorted ordering for each integer
// column.
type TableIndex struct {
	name   string
	rows   int
	bools  map[string]Bitmap // rows where the attribute is true
	orders map[string]*order
}

// order is a column ordering: perm[i] is the row holding the i-th
// smallest value, vals[i] is that value. Ties order by row id, which is
// exactly the stable-sort tie behaviour of the scan path.
type order struct {
	perm []int32
	vals []int64
}

// Bitmap is a set of a table's rows: bit r%64 of word r/64 is set when
// row r is a member. Every Bitmap a TableIndex hands out has
// ⌈rows/64⌉ words and no bit set past the table's last row, so two
// of one table combine word by word.
type Bitmap []uint64

func newBitmap(rows int) Bitmap { return make(Bitmap, (rows+63)/64) }

func (b Bitmap) set(r int32)      { b[r>>6] |= 1 << (r & 63) }
func (b Bitmap) has(r int32) bool { return b[r>>6]&(1<<(r&63)) != 0 }

// invert complements a bitmap of the given row count in place, keeping
// the bits past the last row zero.
func (b Bitmap) invert(rows int) {
	for i := range b {
		b[i] = ^b[i]
	}
	if tail := rows % 64; tail != 0 {
		b[len(b)-1] &= 1<<tail - 1
	}
}

// And intersects b with o, a bitmap of the same table, in place.
func (b Bitmap) And(o Bitmap) {
	o = o[:len(b)]
	for i := range b {
		b[i] &= o[i]
	}
}

// Count returns how many rows the set holds.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Rows returns the set's rows in ascending order — the order ReadRows
// takes them in, so no sort is needed.
func (b Bitmap) Rows() []int32 {
	out := make([]int32, 0, b.Count())
	for i, w := range b {
		for w != 0 {
			out = append(out, int32(i<<6|bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// BuildTable computes every index for one table. The result is a pure
// function of the input: orderings tie-break on row id. A table with
// rows must have an integer column: an ordering's permutation is what
// carries the row count through Encode, and Decode trusts no other.
func BuildTable(t Table) (*TableIndex, error) {
	if t.Name == "" {
		return nil, fmt.Errorf("index: table needs a name")
	}
	if t.Rows > 0 && len(t.Ints) == 0 {
		return nil, fmt.Errorf("index: table %s has %d rows but no integer column to order them", t.Name, t.Rows)
	}
	ti := &TableIndex{
		name:   t.Name,
		rows:   t.Rows,
		bools:  make(map[string]Bitmap, len(t.Bools)),
		orders: make(map[string]*order, len(t.Ints)),
	}
	for key, col := range t.Bools {
		if len(col) != t.Rows {
			return nil, fmt.Errorf("index: table %s bool column %q has %d values for %d rows", t.Name, key, len(col), t.Rows)
		}
		b := newBitmap(t.Rows)
		for i, v := range col {
			if v {
				b.set(int32(i))
			}
		}
		ti.bools[key] = b
	}
	keys := sortedKeys(t.Ints)
	for _, key := range keys {
		if col := t.Ints[key]; len(col) != t.Rows {
			return nil, fmt.Errorf("index: table %s int column %q has %d values for %d rows", t.Name, key, len(col), t.Rows)
		}
	}
	orders := make([]*order, len(keys))
	parallel.Default().Each(len(keys), func(i int) { orders[i] = sortColumn(t.Ints[keys[i]]) })
	for i, key := range keys {
		ti.orders[key] = orders[i]
	}
	return ti, nil
}

// sortColumn orders a column by value, ties by row id: a stable LSD
// radix sort of the row ids, keyed on each value with its sign bit
// flipped (so the keys' unsigned byte order is the values' order), one
// counting pass per key byte, least significant first. A byte every
// key shares orders nothing, so its pass is skipped.
func sortColumn(col []int64) *order {
	n := len(col)
	var counts [8][256]int
	keys := make([]int64, n)
	perm := make([]int32, n)
	for i, v := range col {
		k := v ^ math.MinInt64
		keys[i], perm[i] = k, int32(i)
		for b := range counts {
			counts[b][byte(uint64(k)>>(8*b))]++
		}
	}
	var keys2 []int64
	var perm2 []int32
	for b := range counts {
		shift, c := 8*b, &counts[b]
		if n == 0 || c[byte(uint64(keys[0])>>shift)] == n {
			continue
		}
		if keys2 == nil {
			keys2, perm2 = make([]int64, n), make([]int32, n)
		}
		for d, off := 0, 0; d < len(c); d++ {
			c[d], off = off, off+c[d]
		}
		for i, k := range keys {
			d := byte(uint64(k) >> shift)
			keys2[c[d]], perm2[c[d]] = k, perm[i]
			c[d]++
		}
		keys, keys2 = keys2, keys
		perm, perm2 = perm2, perm
	}
	for i := range keys {
		keys[i] ^= math.MinInt64
	}
	return &order{perm: perm, vals: keys}
}

// Rows returns the indexed table's row count.
func (ti *TableIndex) Rows() int { return ti.rows }

// boolKeys returns the indexed boolean attributes in sorted order.
func (ti *TableIndex) boolKeys() []string { return sortedKeys(ti.bools) }

// orderKeys returns the indexed integer columns in sorted order.
func (ti *TableIndex) orderKeys() []string { return sortedKeys(ti.orders) }

// HasBool reports whether the boolean attribute is indexed.
func (ti *TableIndex) HasBool(key string) bool { _, ok := ti.bools[key]; return ok }

// HasOrder reports whether the integer column has an ordering.
func (ti *TableIndex) HasOrder(key string) bool { _, ok := ti.orders[key]; return ok }

// BoolSet returns a fresh bitmap of the rows where the attribute equals
// want, or false when the attribute is not indexed. The false side is
// the stored bitmap inverted word by word.
func (ti *TableIndex) BoolSet(key string, want bool) (Bitmap, bool) {
	b, ok := ti.bools[key]
	if !ok {
		return nil, false
	}
	out := slices.Clone(b)
	if !want {
		out.invert(ti.rows)
	}
	return out, true
}

// BoolCount returns how many rows satisfy the attribute without
// building their set — the planner's selectivity estimate.
func (ti *TableIndex) BoolCount(key string, want bool) (int, bool) {
	b, ok := ti.bools[key]
	if !ok {
		return 0, false
	}
	if want {
		return b.Count(), true
	}
	return ti.rows - b.Count(), true
}

// rangeBounds returns the [lo,hi) window of the ordering matching
// `col OP v`, where comparisons run in float64 to mirror the scan path's
// JSON-decoded semantics exactly. ok is false for an unknown column or
// operator. For "!=" the match is the complement of the "=" window,
// signalled by neg.
func (ti *TableIndex) rangeBounds(key, op string, v float64) (lo, hi int, neg, ok bool) {
	o, exists := ti.orders[key]
	if !exists {
		return 0, 0, false, false
	}
	n := len(o.vals)
	geq := sort.Search(n, func(i int) bool { return float64(o.vals[i]) >= v })
	gt := sort.Search(n, func(i int) bool { return float64(o.vals[i]) > v })
	switch op {
	case "<":
		return 0, geq, false, true
	case "<=":
		return 0, gt, false, true
	case ">":
		return gt, n, false, true
	case ">=":
		return geq, n, false, true
	case "=":
		return geq, gt, false, true
	case "!=":
		return geq, gt, true, true
	}
	return 0, 0, false, false
}

// RangeSet returns a fresh bitmap of the rows satisfying `col OP v` (op
// one of = != < <= > >=), or false when the column or operator is
// unsupported: the bits of the ordering's window, complemented for "!=".
func (ti *TableIndex) RangeSet(key, op string, v float64) (Bitmap, bool) {
	lo, hi, neg, ok := ti.rangeBounds(key, op, v)
	if !ok {
		return nil, false
	}
	b := newBitmap(ti.rows)
	for _, r := range ti.orders[key].perm[lo:hi] {
		b.set(r)
	}
	if neg {
		b.invert(ti.rows)
	}
	return b, true
}

// RangeCount returns how many rows satisfy `col OP v` without building
// their set, O(log n).
func (ti *TableIndex) RangeCount(key, op string, v float64) (int, bool) {
	lo, hi, neg, ok := ti.rangeBounds(key, op, v)
	if !ok {
		return 0, false
	}
	if neg {
		return ti.rows - (hi - lo), true
	}
	return hi - lo, true
}

// TopK returns the rows of within (every row when within is nil)
// holding the k extreme values of the column, in ascending row-id
// order: the k smallest when desc is false, the k largest when desc is
// true. Tie-breaking matches a stable sort of the scan path exactly —
// within equal values, lower row ids win a slot first. ok is false when
// the column has no ordering.
func (ti *TableIndex) TopK(key string, desc bool, k int, within Bitmap) ([]int32, bool) {
	o, exists := ti.orders[key]
	if !exists {
		return nil, false
	}
	k = max(k, 0)
	out := make([]int32, 0, k)
	take := func(rows []int32) {
		for _, r := range rows {
			if len(out) == k {
				return
			}
			if within == nil || within.has(r) {
				out = append(out, r)
			}
		}
	}
	if !desc {
		take(o.perm)
	} else {
		// Descending traversal must still surface ties in ascending
		// row-id order, so walk equal-value runs from the top end and
		// emit each run front-to-back (perm within a run is already
		// ascending).
		for hi := len(o.perm); hi > 0 && len(out) < k; {
			lo := hi - 1
			for lo > 0 && o.vals[lo-1] == o.vals[hi-1] {
				lo--
			}
			take(o.perm[lo:hi])
			hi = lo
		}
	}
	slices.Sort(out)
	return out, true
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
