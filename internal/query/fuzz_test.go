package query_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdscope/internal/core"
	"crowdscope/internal/graph"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// fuzzSeeds are the statement shapes the unit tests, the frozen-lexer
// tests and the benchmark's populations use, plus a few hostile ones.
var fuzzSeeds = []string{
	"SELECT id, follows FROM users WHERE role = 'investor' ORDER BY follows DESC",
	"SELECT role, COUNT(*) AS n, AVG(follows) AS avg_follows, MAX(follows) AS max_follows FROM users GROUP BY role ORDER BY n DESC",
	"SELECT COUNT(*), SUM(follows), MIN(follows), SUM(follows)/COUNT(*) AS mean FROM users",
	"SELECT id FROM users WHERE (follows + 100) * 2 >= 600 AND NOT role = 'founder'",
	"SELECT id FROM users WHERE profile.likes >= 0 OR follows / 0 = 1 LIMIT 2",
	"SELECT follows - 1 AS f FROM users WHERE id = \"u3\"",
	"SELECT a.b, COUNT(*) AS n FROM ns WHERE x > 1 AND y = 'z' GROUP BY a.b ORDER BY n DESC LIMIT 5",
	"SELECT ID, Name, Likes, Funded FROM frozen/snap-0/companies WHERE ID = \"co-3\"",
	"SELECT ID, Followers FROM frozen/snap-0/companies WHERE Name = \"N\\\"1\" ORDER BY ID",
	"SELECT COUNT(*) AS n FROM frozen/snap-0/companies WHERE Likes + Tweets >= 1000000",
	"SELECT Funded, COUNT(*) AS n, AVG(Likes) AS avg_likes FROM frozen/snap-0/companies WHERE Followers + 7 >= 40 GROUP BY Funded",
	"SELECT COUNT(*) AS n FROM frozen/snap-1/investors WHERE LEN(Investments) * 2 + Follows >= 3",
	"SELECT ID, Investments FROM frozen/snap-1/investors ORDER BY Follows DESC, ID LIMIT 3",
	"SELECT COUNT(*) AS n FROM frozen/snap-0/companies WHERE Raising AND NOT Funded AND Likes <= 500",
	"SELECT ID, Likes FROM frozen/snap-0/companies ORDER BY Likes DESC LIMIT 2",
	"SELECT ID, Change, After, Before.Likes FROM frozen/chain/0-1/companies WHERE After.Likes > Before.Likes OR NOT Before",
	"SELECT Change, COUNT(*) AS n, MAX(After.Follows) FROM frozen/chain/0-1/investors GROUP BY Change, LEN(After.Investments)",
	"SELECT After, LEN(After), -After.Likes, NOT After FROM frozen/chain/0-1/companies GROUP BY After ORDER BY After",
	"SELECT (NOT Raising) = Funded, - - Likes, NULL, TRUE, 0.5 FROM frozen/snap-0/companies",
	"SELECT SUM(COUNT(*)), LEN(SUM(Likes)), COUNT(*) > 1 FROM frozen/snap-0/companies",
	"SELECT",
	"SELECT 'unterminated FROM users",
	"SELECT id@ FROM users",
}

// FuzzParse: any input is either rejected with a query error or parsed
// into a statement whose canonical text — the serving layer's cache key
// — parses back to itself.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stmt string) {
		q, err := query.Parse(stmt)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "query: ") {
				t.Fatalf("Parse(%q): error from outside the package: %v", stmt, err)
			}
			return
		}
		canon := q.Canonical()
		again, err := query.Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q): canonical form %q does not parse: %v", stmt, canon, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("Parse(%q): canonical form %q re-parses to %q", stmt, canon, got)
		}
	})
}

// investorGraph builds the investment graph of ID-sorted investors, as
// a frozen snapshot's graph is built.
func investorGraph(investors []core.Investor) *graph.FrozenBipartite {
	rows := make([]graph.AdjacencyRow, len(investors))
	for i, inv := range investors {
		rows[i] = graph.AdjacencyRow{Left: inv.ID, Rights: inv.Investments}
	}
	g, err := graph.FromRows(rows)
	if err != nil {
		panic(err)
	}
	return g
}

// fuzzStore holds two small snapshots (so a chain diff with an added, a
// removed and two changed entities) that every column type appears in.
func fuzzStore(f *testing.F) *store.Store {
	ctx := context.Background()
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	world := func(snap int, companies []core.Company, investors []core.Investor) *core.FrozenSnapshot {
		return &core.FrozenSnapshot{Snapshot: snap, Companies: companies, Investors: investors,
			Graph: investorGraph(investors)}
	}
	w0 := world(0, []core.Company{
		{ID: "co-1", Name: "Acme", Raising: true, HasTwitter: true, Likes: 10, Tweets: 4, Followers: 90},
		{ID: "co-2", Name: "Bolt", Funded: true, RoundCount: 2, TotalRaisedUSD: 1 << 33, Followers: 7},
		{ID: "co-3", Name: "N\"1", HasVideo: true, HasFacebook: true, Likes: 500, Tweets: 500},
		{ID: "co-4", Name: "Acme", Funded: true, Raising: true, Likes: 10},
	}, []core.Investor{
		{ID: "inv-a", Investments: []string{"co-1", "co-2"}, Follows: 4},
		{ID: "inv-b", Investments: []string{"co-1"}, Follows: 1},
		{ID: "inv-c", Follows: 9},
	})
	w1 := world(1, []core.Company{
		{ID: "co-1", Name: "Acme", Raising: true, HasTwitter: true, Likes: 25, Tweets: 4, Followers: 90},
		{ID: "co-2", Name: "Bolt", Funded: true, RoundCount: 3, TotalRaisedUSD: 1 << 34, Followers: 7},
		{ID: "co-4", Name: "Acme", Funded: true, Raising: true, Likes: 10},
		{ID: "co-5", Name: "Dyno", Likes: 1},
	}, []core.Investor{
		{ID: "inv-a", Investments: []string{"co-1", "co-2", "co-5"}, Follows: 4},
		{ID: "inv-c", Follows: 12},
		{ID: "inv-d", Investments: []string{"co-5"}},
	})
	if err := core.CommitFrozen(ctx, st, w0); err != nil {
		f.Fatal(err)
	}
	if _, err := core.CommitDelta(ctx, st, w0, core.DiffFrozen(w0, w1)); err != nil {
		f.Fatal(err)
	}
	return st
}

// FuzzTypedVsDecoded is the differential check on the row contract: a
// statement run over core's typed records and over the same rows
// marshalled to JSON and decoded per record (the store-namespace
// adapter) must give the same bytes, or fail on both.
func FuzzTypedVsDecoded(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	st := fuzzStore(f)
	typed := &core.QuerySource{Store: st}
	decoded := query.JSONSource{Scanner: &core.QuerySource{Store: st}}
	run := func(q *query.Query, src query.Source) ([]byte, error) {
		res, err := q.Execute(context.Background(), src)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res) // fails on ±Inf and NaN, on both sides alike
	}
	f.Fuzz(func(t *testing.T, stmt string) {
		q, err := query.Parse(stmt)
		if err != nil {
			return
		}
		got, gotErr := run(q, typed)
		want, wantErr := run(q, decoded)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: typed error %v, decoded error %v", stmt, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q:\n  typed %s\ndecoded %s", stmt, got, want)
		}
	})
}

// TestOnlyTheAdapterDecodesJSON keeps the per-row JSON round trip from
// creeping back into the engine: the package's one json.Unmarshal is
// JSONSource's, for store namespaces that have no other representation.
func TestOnlyTheAdapterDecodesJSON(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if name == "exec.go" {
			want = 1
		}
		if got := strings.Count(string(src), "json.Unmarshal("); got != want {
			t.Errorf("%s calls json.Unmarshal %d times, want %d", name, got, want)
		}
	}
}
