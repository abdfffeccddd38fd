package core

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// fieldPaths derives, by reflection, every field path a statement can
// name in a row of type t: each field, and behind a struct pointer (a
// chain row's Before and After) each of that struct's fields too. A
// column added to a row type later shows up here without anyone
// remembering to list it.
func fieldPaths(t reflect.Type) [][]string {
	var out [][]string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		out = append(out, []string{name})
		if f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct {
			for _, sub := range fieldPaths(f.Type.Elem()) {
				out = append(out, append([]string{name}, sub...))
			}
		}
	}
	return out
}

// checkRowContract holds a decoded table (serve performs a read of it)
// to the query.Record contract: for every row, every reflected field
// path (and two the row type does not have) must read as exactly the
// value json.Unmarshal gives for the row's own JSON.
func checkRowContract(t *testing.T, serve func(readReq) error, rowType reflect.Type) int {
	t.Helper()
	fields := append(fieldPaths(rowType), []string{"NoSuchField"}, []string{"ID", "NotAnObject"})

	var docs []map[string]any
	err := serve(readReq{export: func(payload []byte) error {
		var doc map[string]any
		if err := json.Unmarshal(payload, &doc); err != nil {
			return err
		}
		docs = append(docs, doc)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}

	row := 0
	err = serve(readReq{fields: fields, fn: func(rec query.Record) error {
		for i, path := range fields {
			var want any = docs[row]
			for _, part := range path {
				m, _ := want.(map[string]any)
				want = m[part] // nil map, missing key: nil
			}
			if got := rec.Value(i); !reflect.DeepEqual(got, want) {
				t.Errorf("row %d, %s: typed record gives %#v, decoded JSON %#v",
					row, strings.Join(path, "."), got, want)
			}
		}
		row++
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if row != len(docs) {
		t.Fatalf("read %d records, exported %d", row, len(docs))
	}
	return row
}

func TestTypedRecordsMatchDecodedJSON(t *testing.T) {
	ctx := context.Background()

	// The slice cases the frozen codec may normalise are held in memory.
	investors := []Investor{
		{ID: "inv-nil", Investments: nil, Follows: 3},
		{ID: "inv-empty", Investments: []string{}, Follows: 0},
		{ID: "inv-two", Investments: []string{"co-1", "co-2"}, Follows: 1 << 40},
	}
	checkRowContract(t, func(r readReq) error {
		return readRows(ctx, "investors", investors, investorTable, r)
	}, reflect.TypeOf(Investor{}))

	st, _ := deltaChainStore(t, 31, 80, 2)
	src := &QuerySource{Store: st}
	for ns, rowType := range map[string]reflect.Type{
		"frozen/snap-0/companies":      reflect.TypeOf(Company{}),
		"frozen/snap-2/investors":      reflect.TypeOf(Investor{}),
		"frozen/chain/0-2/companies":   reflect.TypeOf(CompanyChange{}),
		"frozen/chain/0-2/investors":   reflect.TypeOf(InvestorChange{}),
		"frozen/snap-000001/companies": reflect.TypeOf(Company{}),
	} {
		serve := func(r readReq) error { return src.read(ctx, ns, r) }
		if n := checkRowContract(t, serve, rowType); n == 0 {
			t.Errorf("%s: no rows checked", ns)
		}
	}

	// The chain tables must have put all three change kinds (an absent
	// Before, an absent After, both present) through the check above.
	cd, err := src.chainFor(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ch := range cd.Companies {
		kinds[ch.Change]++
	}
	if kinds[ChangeAdded] == 0 || kinds[ChangeRemoved] == 0 || kinds[ChangeChanged] == 0 {
		t.Fatalf("chain diff does not cover every change kind: %v", kinds)
	}
}

// TestFullScanAllocatesPerFieldReadOnly pins what the scan route costs:
// boxing the fields a statement reads (at most two a row here) plus a
// constant. A marshal/unmarshal round trip per row — dozens of
// allocations each — cannot come back without failing this.
func TestFullScanAllocatesPerFieldReadOnly(t *testing.T) {
	const n = 2048
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := CommitFrozen(ctx, st, randomWorld(rand.New(rand.NewSource(5)), 0, n)); err != nil {
		t.Fatal(err)
	}
	src := &QuerySource{Store: st}
	for _, stmt := range []string{
		"SELECT COUNT(*) AS n FROM frozen/snap-0/companies WHERE Likes + Tweets >= 700",
		"SELECT Funded, COUNT(*) AS n, AVG(Likes) AS avg_likes FROM frozen/snap-0/companies WHERE Followers + 3 >= 100 GROUP BY Funded",
	} {
		q, err := query.Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if route := q.PlanFor(src).Route; route != query.RouteScan {
			t.Fatalf("%s: plans to %s, want a full scan", stmt, route)
		}
		var res *query.Result
		allocs := testing.AllocsPerRun(5, func() {
			if res, err = q.Execute(ctx, src); err != nil {
				t.Fatal(err)
			}
		})
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no result rows", stmt)
		}
		if limit := float64(2*n + 200); allocs > limit {
			t.Errorf("%s: %.0f allocations over %d rows, want at most %.0f", stmt, allocs, n, limit)
		}
		t.Logf("%.0f allocations over %d rows: %s", allocs, n, stmt)
	}
}

// A context cancelled from inside a pass's callback stops the pass at
// the reader's next look at it, within 64 rows: for a row-addressed
// read and for the JSON export alike.
func TestCancelledPassStopsWithin64Records(t *testing.T) {
	const n = 300
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := CommitFrozen(context.Background(), st, randomWorld(rand.New(rand.NewSource(9)), 0, n)); err != nil {
		t.Fatal(err)
	}
	src := &QuerySource{Store: st}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	for name, pass := range map[string]func(ctx context.Context, each func() error) error{
		"ReadRows": func(ctx context.Context, each func() error) error {
			return src.ReadRows(ctx, "frozen/snap-0/companies", rows, [][]string{{"ID"}}, func(query.Record) error { return each() })
		},
		"ScanContext": func(ctx context.Context, each func() error) error {
			return src.ScanContext(ctx, "frozen/snap-0/companies", func([]byte) error { return each() })
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := pass(ctx, func() error {
			if seen == 100 {
				cancel()
			}
			seen++
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if seen <= 100 || seen > 164 {
			t.Fatalf("%s: %d records delivered; cancelled at record 100, the pass must stop before record 164", name, seen)
		}
	}
}
