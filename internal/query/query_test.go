package query

import (
	"context"
	"errors"
	"strings"
	"testing"

	"crowdscope/internal/store"
)

type user struct {
	ID      string   `json:"id"`
	Role    string   `json:"role"`
	Follows int      `json:"follows"`
	Invests []string `json:"investments,omitempty"`
	Nested  *nested  `json:"profile,omitempty"`
}

type nested struct {
	Likes int `json:"likes"`
}

func testStore(t *testing.T) Source {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Writer("users", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := []user{
		{ID: "u1", Role: "investor", Follows: 100, Invests: []string{"a", "b"}},
		{ID: "u2", Role: "investor", Follows: 300, Invests: []string{"a"}},
		{ID: "u3", Role: "founder", Follows: 10, Nested: &nested{Likes: 7}},
		{ID: "u4", Role: "employee", Follows: 5},
		{ID: "u5", Role: "investor", Follows: 200},
	}
	for _, r := range rows {
		if err := w.Append("", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return JSONSource{st}
}

func TestSelectFields(t *testing.T) {
	st := testStore(t)
	res, err := Run(context.Background(), st, "SELECT id, follows FROM users WHERE role = 'investor' ORDER BY follows DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "id" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != "u2" || res.Rows[1][0] != "u5" || res.Rows[2][0] != "u1" {
		t.Fatalf("order = %v", res.Rows)
	}
}

func TestGroupByAggregates(t *testing.T) {
	st := testStore(t)
	res, err := Run(context.Background(), st, `
		SELECT role, COUNT(*) AS n, AVG(follows) AS avg_follows, MAX(follows) AS max_follows
		FROM users GROUP BY role ORDER BY n DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	top := res.Rows[0]
	if top[0] != "investor" || top[1] != float64(3) {
		t.Fatalf("top group = %v", top)
	}
	if top[2] != float64(200) || top[3] != float64(300) {
		t.Fatalf("aggregates = %v", top)
	}
}

func TestGlobalAggregates(t *testing.T) {
	st := testStore(t)
	res, err := Run(context.Background(), st, "SELECT COUNT(*), SUM(follows), MIN(follows), SUM(follows)/COUNT(*) AS mean FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0] != float64(5) || r[1] != float64(615) || r[2] != float64(5) || r[3] != float64(123) {
		t.Fatalf("aggregates = %v", r)
	}
}

func TestLenAndNestedPath(t *testing.T) {
	st := testStore(t)
	res, err := Run(context.Background(), st, "SELECT id, LEN(investments) AS n FROM users WHERE LEN(investments) >= 1 ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "u1" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res, err = Run(context.Background(), st, "SELECT id FROM users WHERE profile.likes > 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "u3" {
		t.Fatalf("nested rows = %v", res.Rows)
	}
}

func TestWhereLogicAndArithmetic(t *testing.T) {
	st := testStore(t)
	res, err := Run(context.Background(), st, "SELECT id FROM users WHERE (follows + 100) * 2 >= 600 AND NOT role = 'founder'")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[any]bool{}
	for _, r := range res.Rows {
		ids[r[0]] = true
	}
	if !ids["u2"] || !ids["u5"] || len(ids) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// OR branch.
	res, _ = Run(context.Background(), st, "SELECT id FROM users WHERE role = 'founder' OR follows = 5 ORDER BY id")
	if len(res.Rows) != 2 {
		t.Fatalf("or rows = %v", res.Rows)
	}
}

func TestLimit(t *testing.T) {
	st := testStore(t)
	res, err := Run(context.Background(), st, "SELECT id FROM users ORDER BY id LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "u1" || res.Rows[1][0] != "u2" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMissingFieldIsNull(t *testing.T) {
	st := testStore(t)
	// profile.likes is missing for most users; comparisons with NULL fail.
	res, err := Run(context.Background(), st, "SELECT id FROM users WHERE profile.likes >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// COUNT(x) skips nulls, COUNT(*) does not.
	res, _ = Run(context.Background(), st, "SELECT COUNT(profile.likes), COUNT(*) FROM users")
	if res.Rows[0][0] != float64(1) || res.Rows[0][1] != float64(5) {
		t.Fatalf("counts = %v", res.Rows[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM users",
		"SELECT id users",
		"SELECT id FROM users WHERE",
		"SELECT id FROM users LIMIT x",
		"SELECT id FROM users ORDER BY",
		"SELECT id FROM users GROUP",
		"SELECT FOO(id) FROM users",
		"SELECT SUM(*) FROM users",
		"SELECT id FROM users trailing",
		"SELECT 'unterminated FROM users",
		"SELECT id@ FROM users",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestRunErrors(t *testing.T) {
	st := testStore(t)
	if _, err := Run(context.Background(), st, "SELECT id FROM does_not_exist"); err == nil {
		t.Error("unknown namespace accepted")
	}
	if _, err := Run(context.Background(), st, "SELECT id FROM users ORDER BY unknown_col"); err == nil {
		t.Error("unmatched ORDER BY accepted")
	}
}

func TestStringEscapes(t *testing.T) {
	st := testStore(t)
	res, err := Run(context.Background(), st, `SELECT id FROM users WHERE id = "u1"`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("double-quoted string: %v %v", res, err)
	}
}

func TestKeywordCaseInsensitive(t *testing.T) {
	st := testStore(t)
	res, err := Run(context.Background(), st, "select id from users where role = 'founder'")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("lowercase keywords: %v %v", res, err)
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	st := testStore(t)
	res, err := Run(context.Background(), st, "SELECT follows / 0 AS x FROM users LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != nil {
		t.Fatalf("division by zero = %v", res.Rows[0][0])
	}
}

func TestBoolLiteralsAndComparison(t *testing.T) {
	st, _ := store.Open(t.TempDir())
	w, _ := st.Writer("things", 1)
	_ = w.Append("", map[string]any{"id": "a", "active": true})
	_ = w.Append("", map[string]any{"id": "b", "active": false})
	_ = w.Close()
	res, err := Run(context.Background(), JSONSource{st}, "SELECT id FROM things WHERE active = TRUE")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "a" {
		t.Fatalf("bool query: %v %v", res, err)
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	q, err := Parse("SELECT a.b, COUNT(*) AS n FROM ns WHERE x > 1 AND y = 'z' GROUP BY a.b ORDER BY n DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.namespace != "ns" || q.limit != 5 || len(q.groupBy) != 1 || len(q.orderBy) != 1 || !q.orderBy[0].desc {
		t.Fatalf("parsed = %+v", q)
	}
	if !strings.Contains(q.where.String(), "AND") {
		t.Fatalf("where = %s", q.where.String())
	}
}

// deafSource streams n records and never looks at the context; with
// cancel set, it calls cancel just before serving record cancelAt.
type deafSource struct {
	n, served int
	cancelAt  int
	cancel    func()
}

func (d *deafSource) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(Record) error) error {
	for ; d.served < d.n; d.served++ {
		if d.cancel != nil && d.served == d.cancelAt {
			d.cancel()
		}
		if err := fn(values{"u1"}); err != nil {
			return err
		}
	}
	return nil
}

// The engine checks the context between records itself: a deadline cuts
// a scan off mid-stream even over a source that does not.
func TestExecuteStopsWhenContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := &deafSource{n: 1000}
	q, err := Parse("SELECT COUNT(*) AS n FROM anything WHERE id = 'u1'")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := q.Execute(ctx, src); err != nil || res.Rows[0][0] != float64(1000) {
		t.Fatalf("live context: %v %v", res, err)
	}
	cancel()
	src.served = 0
	if _, err := q.Execute(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.served != 0 {
		t.Fatalf("%d records got through a cancelled context", src.served)
	}
}

// A context cancelled mid-pass stops the pass at the engine's next look
// at it, which comes within 64 records, even over a source that never
// looks itself.
func TestCancelledPassStopsWithin64Records(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &deafSource{n: 1000, cancelAt: 100, cancel: cancel}
	q, err := Parse("SELECT COUNT(*) AS n FROM anything WHERE id = 'u1'")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Execute(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.served < 100 || src.served >= 164 {
		t.Fatalf("the pass refused record %d; cancelled at record 100, it must stop before record 164", src.served)
	}
}
