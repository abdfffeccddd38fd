package core

import (
	"fmt"

	"crowdscope/internal/index"
	"crowdscope/internal/snapshot"
)

// A frozen row type is declared once, as its column list: the one place
// a column is named. The list's order is the artifact's section order,
// and everything that reads or writes the columns walks it: the
// snapshot and delta codec, the query accessors and the secondary
// indexes.

var companyColumns = columns[Company]{
	text("ID", ".ids", func(c *Company) *string { return &c.ID }),
	text("Name", ".names", func(c *Company) *string { return &c.Name }),
	{sec: ".flags", flags: []col[Company]{
		flag("Raising", func(c *Company) *bool { return &c.Raising }),
		flag("HasVideo", func(c *Company) *bool { return &c.HasVideo }),
		flag("HasFacebook", func(c *Company) *bool { return &c.HasFacebook }),
		flag("HasTwitter", func(c *Company) *bool { return &c.HasTwitter }),
		flag("Funded", func(c *Company) *bool { return &c.Funded }),
	}},
	integer("Likes", ".likes", func(c *Company) *int { return &c.Likes }),
	integer("Tweets", ".tweets", func(c *Company) *int { return &c.Tweets }),
	integer("Followers", ".followers", func(c *Company) *int { return &c.Followers }),
	integer("RoundCount", ".rounds", func(c *Company) *int { return &c.RoundCount }),
	integer("TotalRaisedUSD", ".raised", func(c *Company) *int64 { return &c.TotalRaisedUSD }),
}

var investorColumns = columns[Investor]{
	text("ID", ".ids", func(v *Investor) *string { return &v.ID }),
	integer("Follows", ".follows", func(v *Investor) *int { return &v.Follows }),
	// Investment order is load-bearing: graph.FromRows numbers right
	// nodes by first appearance, so the flat section keeps each
	// investor's list exactly.
	list("Investments", ".investments", func(v *Investor) *[]string { return &v.Investments }),
}

// columns is a row type's column list. Its first column is the row's
// ID, which the decoder requires strictly ascending.
type columns[R any] []col[R]

// col is one column: its query (and index) name, its artifact section
// after the table's prefix, and its field, through exactly one of str,
// get/set, flags and list (an entry of flags sets bit). value reads the
// field for the query layer as json.Unmarshal into any gives it:
// float64 for every number, []any for a list (nil for a nil slice).
type col[R any] struct {
	name, sec string
	value     func(*R) any
	str       func(*R) *string
	get       func(*R) int64
	set       func(*R, int64)
	flags     []col[R]           // one uint8 section: flag i is bit i
	bit       func(*R) *bool     // a flag's field
	list      func(*R) *[]string // sections sec.offsets and sec.flat
}

func text[R any](name, sec string, f func(*R) *string) col[R] {
	return col[R]{name: name, sec: sec, str: f, value: func(r *R) any { return *f(r) }}
}

func integer[R any, T int | int64](name, sec string, f func(*R) *T) col[R] {
	return col[R]{name: name, sec: sec, value: func(r *R) any { return float64(*f(r)) },
		get: func(r *R) int64 { return int64(*f(r)) }, set: func(r *R, v int64) { *f(r) = T(v) }}
}

func flag[R any](name string, f func(*R) *bool) col[R] {
	return col[R]{name: name, bit: f, value: func(r *R) any { return *f(r) }}
}

func list[R any](name, sec string, f func(*R) *[]string) col[R] {
	return col[R]{name: name, sec: sec, list: f, value: func(r *R) any {
		s := *f(r)
		if s == nil {
			return nil // as JSON null decodes
		}
		out := make([]any, len(s))
		for i, v := range s {
			out[i] = v
		}
		return out
	}}
}

// each maps every row through f.
func each[R, V any](rows []R, f func(*R) V) []V {
	out := make([]V, len(rows))
	for i := range rows {
		out[i] = f(&rows[i])
	}
	return out
}

// key is the row's ID.
func (cs columns[R]) key(r *R) string { return *cs[0].str(r) }

// keys lists the rows' IDs.
func (cs columns[R]) keys(rows []R) []string { return each(rows, cs.key) }

// bits packs the row's flags into the flags section's byte.
func (c *col[R]) bits(r *R) uint8 {
	var b uint8
	for i, f := range c.flags {
		if *f.bit(r) {
			b |= 1 << i
		}
	}
	return b
}

// encode adds the rows' sections under prefix ("co", "delta.co", ...),
// in list order.
func (cs columns[R]) encode(e *snapshot.Encoder, prefix string, rows []R) {
	for _, c := range cs {
		sec := prefix + c.sec
		switch {
		case c.str != nil:
			e.Strings(sec, each(rows, func(r *R) string { return *c.str(r) }))
		case c.get != nil:
			e.Int64s(sec, each(rows, c.get))
		case c.flags != nil:
			e.Uint8s(sec, each(rows, c.bits))
		default:
			offsets, flat := make([]int64, 1, len(rows)+1), []string(nil)
			for i := range rows {
				flat = append(flat, *c.list(&rows[i])...)
				offsets = append(offsets, int64(len(flat)))
			}
			e.Int64s(sec+".offsets", offsets)
			e.Strings(sec+".flat", flat)
		}
	}
}

// decode parses the rows encode wrote under prefix. IDs must be
// strictly ascending — every reader of the rows (ApplyDelta's sorted
// merge, binary-searched ID lookups, the delta decoder) relies on it —
// every section must hold one value per row, and a list's offsets must
// frame its flat section.
func (cs columns[R]) decode(d *snapshot.Decoder, prefix string) ([]R, error) {
	ids, err := d.Strings(prefix + cs[0].sec)
	if err != nil {
		return nil, err
	}
	if !strictlyAscending(ids) {
		return nil, fmt.Errorf("%w: %s%s are not strictly ascending", snapshot.ErrCorrupt, prefix, cs[0].sec)
	}
	rows := make([]R, len(ids))
	for i := range rows {
		*cs[0].str(&rows[i]) = ids[i]
	}
	for _, c := range cs[1:] {
		sec := prefix + c.sec
		switch {
		case c.str != nil:
			err = section(d.Strings, sec, rows, func(r *R, v string) { *c.str(r) = v })
		case c.get != nil:
			err = section(d.Int64s, sec, rows, c.set)
		case c.flags != nil:
			err = section(d.Uint8s, sec, rows, func(r *R, b uint8) {
				for i, f := range c.flags {
					*f.bit(r) = b&(1<<i) != 0
				}
			})
		default:
			err = c.decodeList(d, sec, rows)
		}
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// section reads one section and sets each row's field from its value.
func section[R, V any](read func(string) ([]V, error), sec string, rows []R, set func(*R, V)) error {
	vals, err := read(sec)
	if err != nil {
		return err
	}
	if len(vals) != len(rows) {
		return fmt.Errorf("%w: %s holds %d values for %d rows", snapshot.ErrCorrupt, sec, len(vals), len(rows))
	}
	for i := range rows {
		set(&rows[i], vals[i])
	}
	return nil
}

func (c *col[R]) decodeList(d *snapshot.Decoder, sec string, rows []R) error {
	offsets, err := d.Int64s(sec + ".offsets")
	if err != nil {
		return err
	}
	flat, err := d.Strings(sec + ".flat")
	if err != nil {
		return err
	}
	n := len(rows)
	if len(offsets) != n+1 || offsets[0] != 0 || offsets[n] != int64(len(flat)) {
		return fmt.Errorf("%w: %d %s.offsets do not frame %d rows over %d entries",
			snapshot.ErrCorrupt, len(offsets), sec, n, len(flat))
	}
	for i := range rows {
		lo, hi := offsets[i], offsets[i+1]
		if lo > hi || hi > int64(len(flat)) {
			return fmt.Errorf("%w: invalid %s offsets [%d,%d) for row %d", snapshot.ErrCorrupt, sec, lo, hi, i)
		}
		*c.list(&rows[i]) = flat[lo:hi:hi]
	}
	return nil
}

// named lists every column a query can name: a flags section stands
// for its flags.
func (cs columns[R]) named() []col[R] {
	var out []col[R]
	for _, c := range cs {
		if c.flags == nil {
			out = append(out, c)
		}
		out = append(out, c.flags...)
	}
	return out
}

// table is the rows' query accessor table.
func (cs columns[R]) table() table[R] {
	t := table[R]{}
	for _, c := range cs.named() {
		t[c.name] = column[R]{get: c.value}
	}
	return t
}

// index is the rows' secondary-index input, keyed by the canonical
// query expressions the planner matches: each flag's bitmap, each
// integer's ordering and each list's length ordering (LEN(name)).
func (cs columns[R]) index(name string, rows []R) index.Table {
	t := index.Table{Name: name, Rows: len(rows), Bools: map[string][]bool{}, Ints: map[string][]int64{}}
	for _, c := range cs.named() {
		switch {
		case c.get != nil:
			t.Ints[c.name] = each(rows, c.get)
		case c.list != nil:
			t.Ints["LEN("+c.name+")"] = each(rows, func(r *R) int64 { return int64(len(*c.list(r))) })
		case c.bit != nil:
			t.Bools[c.name] = each(rows, func(r *R) bool { return *c.bit(r) })
		}
	}
	return t
}
