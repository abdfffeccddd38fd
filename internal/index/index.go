package index

import (
	"fmt"
	"sort"
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

// TableIndex is one table's persisted secondary indexes: postings lists
// for boolean attributes and sorted orderings for integer columns.
type TableIndex struct {
	name     string
	rows     int
	postings map[string][]int32 // sorted row ids where the attribute is true
	orders   map[string]*order
}

// order is a column ordering: perm[i] is the row holding the i-th
// smallest value, vals[i] is that value. Ties order by row id, which is
// exactly the stable-sort tie behaviour of the scan path.
type order struct {
	perm []int32
	vals []int64
}

// BuildTable computes every index for one table. The result is a pure
// function of the input: postings iterate rows in order and orderings
// tie-break on row id.
func BuildTable(t Table) (*TableIndex, error) {
	if t.Name == "" {
		return nil, fmt.Errorf("index: table needs a name")
	}
	ti := &TableIndex{
		name:     t.Name,
		rows:     t.Rows,
		postings: make(map[string][]int32, len(t.Bools)),
		orders:   make(map[string]*order, len(t.Ints)),
	}
	for key, col := range t.Bools {
		if len(col) != t.Rows {
			return nil, fmt.Errorf("index: table %s bool column %q has %d values for %d rows", t.Name, key, len(col), t.Rows)
		}
		var rows []int32
		for i, v := range col {
			if v {
				rows = append(rows, int32(i))
			}
		}
		ti.postings[key] = rows
	}
	for key, col := range t.Ints {
		if len(col) != t.Rows {
			return nil, fmt.Errorf("index: table %s int column %q has %d values for %d rows", t.Name, key, len(col), t.Rows)
		}
		perm := make([]int32, t.Rows)
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.Slice(perm, func(a, b int) bool {
			va, vb := col[perm[a]], col[perm[b]]
			if va != vb {
				return va < vb
			}
			return perm[a] < perm[b]
		})
		vals := make([]int64, t.Rows)
		for i, r := range perm {
			vals[i] = col[r]
		}
		ti.orders[key] = &order{perm: perm, vals: vals}
	}
	return ti, nil
}

// Rows returns the indexed table's row count.
func (ti *TableIndex) Rows() int { return ti.rows }

// boolKeys returns the indexed boolean attributes in sorted order.
func (ti *TableIndex) boolKeys() []string { return sortedKeys(ti.postings) }

// orderKeys returns the indexed integer columns in sorted order.
func (ti *TableIndex) orderKeys() []string { return sortedKeys(ti.orders) }

// HasBool reports whether the boolean attribute is indexed.
func (ti *TableIndex) HasBool(key string) bool { _, ok := ti.postings[key]; return ok }

// HasOrder reports whether the integer column has an ordering.
func (ti *TableIndex) HasOrder(key string) bool { _, ok := ti.orders[key]; return ok }

// EqBool returns the sorted rows where the attribute equals want, or
// false when the attribute is not indexed. The true side is the stored
// postings list; the false side is its complement.
func (ti *TableIndex) EqBool(key string, want bool) ([]int32, bool) {
	pos, ok := ti.postings[key]
	if !ok {
		return nil, false
	}
	if want {
		out := make([]int32, len(pos))
		copy(out, pos)
		return out, true
	}
	return complement(pos, ti.rows), true
}

// BoolCount returns how many rows satisfy the attribute without
// materializing them — the planner's selectivity estimate, O(1).
func (ti *TableIndex) BoolCount(key string, want bool) (int, bool) {
	pos, ok := ti.postings[key]
	if !ok {
		return 0, false
	}
	if want {
		return len(pos), true
	}
	return ti.rows - len(pos), true
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

// Range returns the sorted rows satisfying `col OP v` (op one of
// = != < <= > >=), or false when the column or operator is unsupported.
func (ti *TableIndex) Range(key, op string, v float64) ([]int32, bool) {
	lo, hi, neg, ok := ti.rangeBounds(key, op, v)
	if !ok {
		return nil, false
	}
	o := ti.orders[key]
	if neg {
		matched := make([]int32, 0, hi-lo)
		matched = append(matched, o.perm[lo:hi]...)
		sort.Slice(matched, func(a, b int) bool { return matched[a] < matched[b] })
		return complement(matched, ti.rows), true
	}
	out := make([]int32, hi-lo)
	copy(out, o.perm[lo:hi])
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, true
}

// RangeCount returns how many rows satisfy `col OP v` without
// materializing them, O(log n).
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

// TopK returns the rows holding the k extreme values of the column in
// ascending row-id order: the k smallest when desc is false, the k
// largest when desc is true. Tie-breaking matches a stable sort of the
// scan path exactly — within equal values, lower row ids win a slot
// first. ok is false when the column has no ordering.
func (ti *TableIndex) TopK(key string, desc bool, k int) ([]int32, bool) {
	return ti.topK(key, desc, k, nil)
}

// TopKWithin is TopK restricted to a candidate row set (sorted row ids,
// typically a postings intersection).
func (ti *TableIndex) TopKWithin(key string, desc bool, k int, within []int32) ([]int32, bool) {
	member := make(map[int32]struct{}, len(within))
	for _, r := range within {
		member[r] = struct{}{}
	}
	return ti.topK(key, desc, k, member)
}

func (ti *TableIndex) topK(key string, desc bool, k int, member map[int32]struct{}) ([]int32, bool) {
	o, exists := ti.orders[key]
	if !exists {
		return nil, false
	}
	if k < 0 {
		k = 0
	}
	take := func(rows []int32) []int32 {
		out := make([]int32, 0, k)
		for _, r := range rows {
			if len(out) == k {
				break
			}
			if member != nil {
				if _, ok := member[r]; !ok {
					continue
				}
			}
			out = append(out, r)
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out
	}
	if !desc {
		return take(o.perm), true
	}
	// Descending traversal must still surface ties in ascending row-id
	// order, so walk equal-value runs from the top end and emit each run
	// front-to-back (perm within a run is already ascending).
	out := make([]int32, 0, k)
	for hi := len(o.perm); hi > 0 && len(out) < k; {
		lo := hi - 1
		for lo > 0 && o.vals[lo-1] == o.vals[hi-1] {
			lo--
		}
		for _, r := range o.perm[lo:hi] {
			if len(out) == k {
				break
			}
			if member != nil {
				if _, ok := member[r]; !ok {
					continue
				}
			}
			out = append(out, r)
		}
		hi = lo
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, true
}

// Intersect merges two sorted row-id lists into their sorted
// intersection.
func Intersect(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// complement returns the sorted rows of [0,rows) not present in the
// sorted list pos.
func complement(pos []int32, rows int) []int32 {
	out := make([]int32, 0, rows-len(pos))
	next := 0
	for r := int32(0); int(r) < rows; r++ {
		if next < len(pos) && pos[next] == r {
			next++
			continue
		}
		out = append(out, r)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
