package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crowdscope/internal/index"
	"crowdscope/internal/query"
	"crowdscope/internal/snapshot"
	"crowdscope/internal/store"
)

// scanOnly strips the index methods off a QuerySource, forcing the
// planner down the always-correct scan route. It is the oracle for the
// equivalence property: whatever the index routes answer must be
// byte-identical to this.
type scanOnly struct{ src *QuerySource }

func (s scanOnly) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(query.Record) error) error {
	return s.src.ReadRecords(ctx, ns, fields, fn)
}

// randomWorld builds a deterministic pseudo-random snapshot with n
// companies and ~n/4 investors, exercising every indexed column.
func randomWorld(rng *rand.Rand, snap, n int) *FrozenSnapshot {
	companies := make([]Company, n)
	for i := range companies {
		companies[i] = Company{
			ID:             fmt.Sprintf("co-%05d", i),
			Name:           fmt.Sprintf("N%03d", rng.Intn(40)),
			Raising:        rng.Intn(2) == 0,
			HasVideo:       rng.Intn(3) == 0,
			HasFacebook:    rng.Intn(2) == 0,
			HasTwitter:     rng.Intn(4) != 0,
			Likes:          rng.Intn(1000),
			Tweets:         rng.Intn(500),
			Followers:      rng.Intn(2000),
			Funded:         rng.Intn(3) == 0,
			RoundCount:     rng.Intn(6),
			TotalRaisedUSD: int64(rng.Intn(5000000)),
		}
	}
	investors := make([]Investor, n/4+1)
	for i := range investors {
		seen := map[string]bool{}
		for j := rng.Intn(5); j > 0; j-- {
			seen[companies[rng.Intn(n)].ID] = true
		}
		inv := make([]string, 0, len(seen))
		for id := range seen {
			inv = append(inv, id)
		}
		investors[i] = Investor{
			ID:          fmt.Sprintf("inv-%04d", i),
			Investments: inv,
			Follows:     rng.Intn(300),
		}
	}
	return &FrozenSnapshot{
		Snapshot:  snap,
		Companies: companies,
		Investors: investors,
		Graph:     investorGraph(investors),
	}
}

var (
	eqBoolAttrs = []string{"Raising", "HasVideo", "HasFacebook", "HasTwitter", "Funded"}
	eqIntCols   = []string{"Likes", "Tweets", "Followers", "RoundCount", "TotalRaisedUSD"}
	eqCmpOps    = []string{"=", "!=", "<", "<=", ">", ">="}
)

// randomPredicate composes 1-3 random conjuncts: pushable boolean and
// range forms, plus occasional residual-only string comparisons so the
// mixed pushed+residual path gets exercised too.
func randomPredicate(rng *rand.Rand) string {
	n := 1 + rng.Intn(3)
	conjs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			conjs = append(conjs, eqBoolAttrs[rng.Intn(len(eqBoolAttrs))])
		case 1:
			conjs = append(conjs, "NOT "+eqBoolAttrs[rng.Intn(len(eqBoolAttrs))])
		case 2:
			lit := "TRUE"
			if rng.Intn(2) == 0 {
				lit = "FALSE"
			}
			op := "="
			if rng.Intn(2) == 0 {
				op = "!="
			}
			conjs = append(conjs, fmt.Sprintf("%s %s %s", eqBoolAttrs[rng.Intn(len(eqBoolAttrs))], op, lit))
		case 3, 4:
			col := eqIntCols[rng.Intn(len(eqIntCols))]
			op := eqCmpOps[rng.Intn(len(eqCmpOps))]
			conjs = append(conjs, fmt.Sprintf("%s %s %d", col, op, rng.Intn(1200)))
		case 5:
			// Residual: the planner cannot push a string comparison.
			conjs = append(conjs, fmt.Sprintf(`Name != "N%03d"`, rng.Intn(40)))
		}
	}
	return strings.Join(conjs, " AND ")
}

// randomStatement draws one query over the frozen companies or
// investors namespace, covering the planner's four routes.
func randomStatement(rng *rand.Rand, snap int) string {
	ns := fmt.Sprintf("frozen/snap-%d/companies", snap)
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM %s WHERE %s", ns, randomPredicate(rng))
	case 1:
		col := eqIntCols[rng.Intn(len(eqIntCols))]
		dir := "DESC"
		if rng.Intn(2) == 0 {
			dir = "ASC"
		}
		return fmt.Sprintf("SELECT ID, %s FROM %s WHERE %s ORDER BY %s %s LIMIT %d",
			col, ns, randomPredicate(rng), col, dir, 1+rng.Intn(12))
	case 2:
		return fmt.Sprintf("SELECT Funded, COUNT(*) AS n FROM %s WHERE %s GROUP BY Funded ORDER BY n DESC",
			ns, randomPredicate(rng))
	case 3:
		return fmt.Sprintf("SELECT ID, Follows FROM frozen/snap-%d/investors WHERE Follows >= %d AND LEN(Investments) >= %d ORDER BY ID",
			snap, rng.Intn(300), rng.Intn(4))
	default:
		return fmt.Sprintf("SELECT ID, Likes, Followers FROM %s WHERE %s ORDER BY ID", ns, randomPredicate(rng))
	}
}

// TestIndexRouteMatchesScanRouteProperty is the correctness gate for the
// whole planner stack: random queries at eight world sizes, each run
// once through the indexed source and once through a scan-only wrapper
// of the same store, must produce byte-identical JSON results.
func TestIndexRouteMatchesScanRouteProperty(t *testing.T) {
	for _, world := range []struct {
		rows  int
		stmts int
	}{
		{rows: 64, stmts: 80},
		{rows: 512, stmts: 60},
		{rows: 4096, stmts: 25},
		// Row counts off the 64-row word boundary: a complement that set
		// bits past the last row would inflate index-count answers here.
		{rows: 1, stmts: 80},
		{rows: 63, stmts: 80},
		{rows: 65, stmts: 80},
		{rows: 1000, stmts: 40},
		// The serve_hot snapshot's size.
		{rows: 14881, stmts: 12},
	} {
		world := world
		t.Run(fmt.Sprintf("rows=%d", world.rows), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(world.rows)))
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			fs := randomWorld(rng, 0, world.rows)
			if err := CommitFrozen(context.Background(), st, fs); err != nil {
				t.Fatal(err)
			}
			src := &QuerySource{Store: st}
			oracle := scanOnly{src: &QuerySource{Store: st}}
			// A second oracle shares no row representation with either:
			// the JSON export of the same columns, decoded per record.
			decoded := query.JSONSource{Scanner: &QuerySource{Store: st}}

			routes := map[string]int{}
			for i := 0; i < world.stmts; i++ {
				stmt := randomStatement(rng, 0)
				q, err := query.Parse(stmt)
				if err != nil {
					t.Fatalf("parse %q: %v", stmt, err)
				}
				got, plan, err := q.Explain(context.Background(), src)
				if err != nil {
					t.Fatalf("indexed run %q: %v", stmt, err)
				}
				want, err := q.Execute(context.Background(), oracle)
				if err != nil {
					t.Fatalf("scan run %q: %v", stmt, err)
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("route %s diverged from scan for %q\nplan:  %s\nindex: %s\nscan:  %s",
						plan.Route, stmt, plan.Explain(), gotJSON, wantJSON)
				}
				viaJSON, err := q.Execute(context.Background(), decoded)
				if err != nil {
					t.Fatalf("decoded run %q: %v", stmt, err)
				}
				if decodedJSON, _ := json.Marshal(viaJSON); !bytes.Equal(decodedJSON, wantJSON) {
					t.Fatalf("typed scan diverged from decoded JSON for %q\ntyped:   %s\ndecoded: %s", stmt, wantJSON, decodedJSON)
				}
				routes[plan.Route]++
			}
			// The property is vacuous if every statement fell back to a
			// scan: require real index-route coverage.
			if routes[query.RouteIndex] == 0 || routes[query.RouteIndexCount] == 0 || routes[query.RouteIndexTopK] == 0 {
				t.Fatalf("insufficient index-route coverage: %v", routes)
			}
			t.Logf("routes: %v", routes)
		})
	}
}

// TestCorruptIndexBlobFailsLoudly flips one byte of a committed index
// blob: loading must fail with a validation error, the planner must
// fall back to the scan route carrying the reason, and query results
// must remain correct.
func TestCorruptIndexBlobFailsLoudly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := randomWorld(rng, 0, 64)
	data, err := EncodeFrozen(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBlob(FrozenNamespace(0), snapshot.FormatVersion, data); err != nil {
		t.Fatal(err)
	}
	idxData, err := EncodeIndexes(fs)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(idxData)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := st.PutBlob(IndexNamespace(0), index.FormatVersion, corrupt); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadIndex(st, 0); err == nil {
		t.Fatal("LoadIndex accepted a corrupted index blob")
	}

	src := &QuerySource{Store: st}
	stmt := "SELECT COUNT(*) AS n FROM frozen/snap-0/companies WHERE Raising"
	q, err := query.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan := q.PlanFor(src)
	if plan.Route != query.RouteScan {
		t.Fatalf("plan route = %s, want scan fallback; plan: %s", plan.Route, plan.Explain())
	}
	if !strings.Contains(plan.Fallback, "index unavailable") {
		t.Fatalf("fallback reason = %q, want an index-unavailable explanation", plan.Fallback)
	}

	got, _, err := q.Explain(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Execute(context.Background(), scanOnly{src: &QuerySource{Store: st}})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("fallback result diverged: %s vs %s", gotJSON, wantJSON)
	}
}

// TestStaleIndexFallsBackToScan commits a 64-row snapshot and then
// overwrites its index blob with one built over 65 rows, as a crash
// between CommitFrozen's two puts during a re-freeze of the snapshot
// would leave it. The planner must refuse the stale index, say why in
// the plan, and answer COUNT(*) exactly as the scan does — whether the
// planner's index lookup is the first touch of the snapshot or the
// snapshot was decoded before it. Both orders check the index against
// the decoded rows: TableIndex loads the snapshot through the cache.
func TestStaleIndexFallsBackToScan(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := CommitFrozen(context.Background(), st, randomWorld(rand.New(rand.NewSource(5)), 0, 64)); err != nil {
		t.Fatal(err)
	}
	stale, err := EncodeIndexes(randomWorld(rand.New(rand.NewSource(6)), 0, 65))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBlob(IndexNamespace(0), index.FormatVersion, stale); err != nil {
		t.Fatal(err)
	}

	oracle := scanOnly{src: &QuerySource{Store: st}}
	for _, decodedFirst := range []bool{false, true} {
		src := &QuerySource{Store: st}
		if decodedFirst {
			if _, err := src.Frozen(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, stmt := range []string{
			"SELECT COUNT(*) AS n FROM frozen/snap-0/companies WHERE Raising",
			"SELECT COUNT(*) AS n FROM frozen/snap-0/companies WHERE NOT Funded",
			"SELECT COUNT(*) AS n FROM frozen/snap-0/companies WHERE Likes > 100 AND NOT HasVideo",
			"SELECT ID FROM frozen/snap-0/companies WHERE Likes > 900 ORDER BY ID",
		} {
			q, err := query.Parse(stmt)
			if err != nil {
				t.Fatal(err)
			}
			got, plan, err := q.Explain(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Route != query.RouteScan || !strings.Contains(plan.Fallback, "index unavailable") {
				t.Fatalf("decodedFirst=%v %s: planned %s; want a scan falling back from the stale index", decodedFirst, stmt, plan.Explain())
			}
			want, err := q.Execute(context.Background(), oracle)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("decodedFirst=%v %s: %s, scan says %s", decodedFirst, stmt, gotJSON, wantJSON)
			}
		}
	}
}

// TestIndexFormatVersionMismatchRejected guards the reader against a
// future format bump landing without a migration.
func TestIndexFormatVersionMismatchRejected(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := randomWorld(rand.New(rand.NewSource(9)), 0, 8)
	idxData, err := EncodeIndexes(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBlob(IndexNamespace(0), index.FormatVersion+1, idxData); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(st, 0); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("LoadIndex = %v, want format-version error", err)
	}
}
