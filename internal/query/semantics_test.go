package query

import (
	"context"
	"reflect"
	"testing"
)

// oneRow is a namespace of one record whose fields are looked up by
// their first path element; a name it does not hold reads as nil.
type oneRow map[string]any

func (r oneRow) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(Record) error) error {
	v := make(values, len(fields))
	for i, path := range fields {
		v[i] = r[path[0]]
	}
	return fn(v)
}

// TestEvaluatorSemantics pins what every operator gives for every kind
// of operand a record can hold — nil, number, string, bool, list and
// object — so that a change to how expressions are evaluated cannot
// change an answer. Each case is one statement over one record; a nil
// want with wantErr false is a nil value, not a missing row.
func TestEvaluatorSemantics(t *testing.T) {
	row := oneRow{
		"n": 2.0, "zero": 0.0, "s": "abc", "e": "", "b": true, "f": false,
		"l": []any{1.0, "x"}, "m": map[string]any{"k": 1.0},
		// "z" is absent: it reads as nil.
	}
	for _, tc := range []struct {
		sql     string
		want    []any
		wantErr bool
	}{
		// nil operands, for every operator
		{sql: "SELECT z = 1, 1 = z, z != 1, z < 1, z <= 1, z > 1, z >= 1 FROM t",
			want: []any{false, false, false, false, false, false, false}},
		{sql: "SELECT z = z, z != z, NULL = NULL, z = NULL FROM t", want: []any{false, false, false, false}},
		{sql: "SELECT z + 1, 1 - z, z * 2, z / 1, 1 / z, -z FROM t", want: []any{nil, nil, nil, nil, nil, nil}},
		{sql: "SELECT z AND TRUE, TRUE AND z, z OR TRUE, z OR FALSE, FALSE OR z, NOT z FROM t",
			want: []any{false, false, true, false, false, true}},
		{sql: "SELECT z, NULL, LEN(z), LEN(NULL) FROM t", want: []any{nil, nil, 0.0, 0.0}},

		// mixed comparisons: numbers with bools as 0/1, strings
		// lexically, any other pair by kind name
		{sql: "SELECT n = '2', n < '2', s > n, s = 'abc', s < 'abd', e = '' FROM t",
			want: []any{false, true, true, true, true, true}},
		{sql: "SELECT b = 1, b > f, f = 0, b = TRUE, f < n, b = 'true', b < 'x' FROM t",
			want: []any{true, true, true, true, true, false, true}},
		{sql: "SELECT l = l, l = m, l < m, m > 1, m = s, l > 'zzz', l > b FROM t",
			want: []any{true, false, true, true, false, false, false}},
		{sql: "SELECT n = 2, n != 2.5, 2 <= n, 3 > n, n >= 2, 1 < n FROM t",
			want: []any{true, true, true, true, true, true}},

		// arithmetic
		{sql: "SELECT TRUE + 1, TRUE * FALSE, b - n, n / 0, 1 / zero, n / 4, s + 1, n * l FROM t",
			want: []any{2.0, 0.0, -1.0, nil, nil, 0.5, nil, nil}},
		{sql: "SELECT -s, -b, -f, - -n, -l, -m, -(n + 1) FROM t",
			want: []any{nil, -1.0, 0.0, 2.0, nil, nil, -3.0}},
		{sql: "SELECT (n + 1) * 2 - 3 / 2, n - -1 FROM t", want: []any{4.5, 3.0}},

		// LEN
		{sql: "SELECT LEN(s), LEN(e), LEN(l), LEN(n), LEN(b), LEN(m), LEN('xy'), LEN(7) FROM t",
			want: []any{3.0, 0.0, 2.0, nil, nil, nil, 2.0, nil}},

		// NOT of non-bools, truthiness in AND/OR
		{sql: "SELECT NOT n, NOT zero, NOT s, NOT e, NOT l, NOT m, NOT b, NOT NOT f FROM t",
			want: []any{false, true, false, true, false, false, false, false}},
		{sql: "SELECT s AND n, e OR zero, l AND m, n AND z, z OR e, f OR s FROM t",
			want: []any{true, false, true, false, false, true}},

		// an aggregate outside the select list's fold is the
		// aggregate of one record
		{sql: "SELECT COUNT(*) AS c FROM t WHERE SUM(n) > 1", want: []any{1.0}},
		{sql: "SELECT COUNT(*) AS c FROM t WHERE COUNT(*) = 1 AND COUNT(z) = 0", want: []any{1.0}},
		{sql: "SELECT COUNT(*) AS c FROM t WHERE MIN(s) = NULL OR MAX(s) > 0", want: []any{0.0}},
		{sql: "SELECT LEN(SUM(n)), LEN(COUNT(*)), n FROM t", want: []any{nil, nil, 2.0}},

		// the select list's fold
		{sql: "SELECT SUM(n) + COUNT(*), -SUM(n), NOT COUNT(*), SUM(s), MIN(s), COUNT(s), COUNT(z), AVG(b) FROM t",
			want: []any{3.0, -2.0, false, 0.0, nil, 1.0, 0.0, 1.0}},
		{sql: "SELECT SUM(n) + s, SUM(n) = s, MAX(n) * b, n, COUNT(*) FROM t",
			want: []any{nil, nil, 2.0, 2.0, 1.0}},
		{sql: "SELECT n, COUNT(*) AS c, AVG(n), SUM(n) FROM t WHERE FALSE", want: []any{nil, 0.0, nil, 0.0}},
		{sql: "SELECT s, COUNT(*) AS c FROM t GROUP BY s, LEN(l)", want: []any{"abc", 1.0}},

		// statement errors found only while executing
		{sql: "SELECT COUNT(*) > 1 FROM t", wantErr: true},
		{sql: "SELECT COUNT(*) AND SUM(n) FROM t", wantErr: true},
		{sql: "SELECT SUM(n) = TRUE FROM t", wantErr: true},
		{sql: "SELECT n FROM t ORDER BY nope", wantErr: true},
	} {
		q, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		res, err := q.Execute(context.Background(), row)
		switch {
		case tc.wantErr:
			if err == nil {
				t.Errorf("%s: answered %v, want an error", tc.sql, res.Rows)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.sql, err)
		case len(res.Rows) != 1:
			t.Errorf("%s: %d rows, want 1", tc.sql, len(res.Rows))
		case !reflect.DeepEqual(res.Rows[0], tc.want):
			t.Errorf("%s:\n got %#v\nwant %#v", tc.sql, res.Rows[0], tc.want)
		}
	}
}
