package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"crowdscope/internal/query"
	"crowdscope/internal/snapshot"
	"crowdscope/internal/store"
)

// deltaChainStore commits `rounds` mutation rounds on top of a random
// world through the delta path and returns the store plus every
// materialized round.
func deltaChainStore(t *testing.T, seed int64, n, rounds int) (*store.Store, []*FrozenSnapshot) {
	t.Helper()
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gen, world := newWorldGen(seed, n)
	if err := CommitFrozen(ctx, st, world); err != nil {
		t.Fatal(err)
	}
	worlds := []*FrozenSnapshot{world}
	applied := world
	for r := 1; r <= rounds; r++ {
		world = gen.mutate(world)
		worlds = append(worlds, world)
		applied, err = CommitDelta(ctx, st, applied, DiffFrozen(applied, world))
		if err != nil {
			t.Fatal(err)
		}
	}
	return st, worlds
}

// TestChainDiffContents pins the chain diff's semantics: every entity is
// classified added/removed/changed with the right Before/After rows,
// sorted by ID, and an equal-endpoints diff is empty.
func TestChainDiffContents(t *testing.T) {
	st, worlds := deltaChainStore(t, 21, 80, 2)
	src := &QuerySource{Store: st}
	cd, err := src.chainFor(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cd.From != 0 || cd.To != 2 {
		t.Fatalf("diff endpoints = %d-%d", cd.From, cd.To)
	}

	prev, next := worlds[0], worlds[2]
	byID := map[string]Company{}
	for _, c := range prev.Companies {
		byID[c.ID] = c
	}
	nextByID := map[string]Company{}
	for _, c := range next.Companies {
		nextByID[c.ID] = c
	}
	want := map[string]string{}
	for id := range nextByID {
		if old, ok := byID[id]; !ok {
			want[id] = ChangeAdded
		} else if old != nextByID[id] {
			want[id] = ChangeChanged
		}
	}
	for id := range byID {
		if _, ok := nextByID[id]; !ok {
			want[id] = ChangeRemoved
		}
	}
	if len(cd.Companies) != len(want) {
		t.Fatalf("company changes = %d, want %d", len(cd.Companies), len(want))
	}
	lastID := ""
	for _, ch := range cd.Companies {
		if ch.ID <= lastID {
			t.Fatalf("changes not sorted: %q after %q", ch.ID, lastID)
		}
		lastID = ch.ID
		if want[ch.ID] != ch.Change {
			t.Fatalf("%s: change = %q, want %q", ch.ID, ch.Change, want[ch.ID])
		}
		switch ch.Change {
		case ChangeAdded:
			if ch.Before != nil || ch.After == nil || *ch.After != nextByID[ch.ID] {
				t.Fatalf("%s: bad added rows", ch.ID)
			}
		case ChangeRemoved:
			if ch.After != nil || ch.Before == nil || *ch.Before != byID[ch.ID] {
				t.Fatalf("%s: bad removed rows", ch.ID)
			}
		case ChangeChanged:
			if ch.Before == nil || ch.After == nil || *ch.Before != byID[ch.ID] || *ch.After != nextByID[ch.ID] {
				t.Fatalf("%s: bad changed rows", ch.ID)
			}
		}
	}

	empty, err := src.chainFor(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Companies) != 0 || len(empty.Investors) != 0 {
		t.Fatal("equal-endpoint diff is not empty")
	}
	if _, err := src.chainFor(2, 0); err == nil {
		t.Fatal("reversed endpoints accepted")
	}
	if _, err := src.chainFor(0, 7); err == nil {
		t.Fatal("version without an artifact accepted")
	}
}

// TestChainQueryNamespaces drives the longitudinal frozen/chain/A-B
// namespaces through the query layer: results must match the chain
// diff, nested Before/After fields must be addressable, and the planner
// must fall back to a scan with a reason naming the namespace.
func TestChainQueryNamespaces(t *testing.T) {
	st, _ := deltaChainStore(t, 31, 80, 2)
	from, err := LoadFrozen(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	to, err := LoadFrozen(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	cd := diffSnapshots(from, to)
	src := &QuerySource{Store: st}
	ctx := context.Background()

	t.Run("change classes", func(t *testing.T) {
		stmt := `SELECT ID, Change FROM frozen/chain/0-2/companies WHERE Change != "removed" ORDER BY ID`
		q, err := query.Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Execute(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		var want [][2]string
		for _, ch := range cd.Companies {
			if ch.Change != ChangeRemoved {
				want = append(want, [2]string{ch.ID, ch.Change})
			}
		}
		if len(res.Rows) != len(want) || len(want) == 0 {
			t.Fatalf("rows = %d, want %d (>0)", len(res.Rows), len(want))
		}
		for i, row := range res.Rows {
			if row[0] != want[i][0] || row[1] != want[i][1] {
				t.Fatalf("row %d = %v, want %v", i, row, want[i])
			}
		}
	})

	t.Run("nested endpoint fields", func(t *testing.T) {
		stmt := `SELECT ID FROM frozen/chain/0-2/companies WHERE Change = "changed" AND After.Likes > Before.Likes ORDER BY ID`
		q, err := query.Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Execute(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, ch := range cd.Companies {
			if ch.Change == ChangeChanged && ch.After.Likes > ch.Before.Likes {
				want = append(want, ch.ID)
			}
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
		}
		for i, row := range res.Rows {
			if row[0] != want[i] {
				t.Fatalf("row %d: ID = %v, want %s", i, row[0], want[i])
			}
		}
		if len(want) == 0 {
			t.Fatal("mutation schedule produced no likes growth; test is vacuous")
		}
	})

	t.Run("investor churn count", func(t *testing.T) {
		stmt := `SELECT Change, COUNT(*) AS n FROM frozen/chain/0-2/investors GROUP BY Change ORDER BY Change`
		q, err := query.Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Execute(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{}
		for _, ch := range cd.Investors {
			want[ch.Change]++
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("groups = %d, want %d (%v)", len(res.Rows), len(want), want)
		}
		for _, row := range res.Rows {
			change := row[0].(string)
			if int(row[1].(float64)) != want[change] {
				t.Fatalf("%s: n = %v, want %d", change, row[1], want[change])
			}
		}
	})

	t.Run("planner names the chain namespace", func(t *testing.T) {
		q, err := query.Parse(`SELECT COUNT(*) AS n FROM frozen/chain/0-2/companies`)
		if err != nil {
			t.Fatal(err)
		}
		plan := q.PlanFor(src)
		if plan.Route != query.RouteScan {
			t.Fatalf("route = %s, want scan", plan.Route)
		}
		if !strings.Contains(plan.Fallback, "frozen/chain/0-2/companies") {
			t.Fatalf("fallback %q does not name the namespace", plan.Fallback)
		}
	})

	t.Run("malformed chain namespaces", func(t *testing.T) {
		for _, ns := range []string{"frozen/chain/0-2", "frozen/chain/a-b/companies", "frozen/chain/2/companies"} {
			err := src.ScanContext(ctx, ns, func([]byte) error { return nil })
			if err == nil || !strings.Contains(err.Error(), "chain") {
				t.Fatalf("%s: err = %v, want malformed-chain error", ns, err)
			}
		}
		if err := src.ScanContext(ctx, "frozen/chain/0-2/widgets", func([]byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "widgets") {
			t.Fatalf("unknown table: err = %v", err)
		}
	})
}

// TestMissingIndexMidChain covers the documented crash window where a
// snapshot blob landed but its index blob did not, in the middle of an
// otherwise indexed chain: the snapshot must stay fully queryable via
// scans, LoadIndex must report no-index (not an error), and the
// planner's fallback reason must name the affected snapshot version.
func TestMissingIndexMidChain(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gen, world := newWorldGen(41, 64)
	if err := CommitFrozen(ctx, st, world); err != nil {
		t.Fatal(err)
	}
	// Round 1 crashes between the snapshot put and the index put.
	world1 := gen.mutate(world)
	data, err := EncodeFrozen(world1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBlob(FrozenNamespace(1), snapshot.FormatVersion, data); err != nil {
		t.Fatal(err)
	}
	// Round 2 commits normally on top of it.
	world2 := gen.mutate(world1)
	if err := CommitFrozen(ctx, st, world2); err != nil {
		t.Fatal(err)
	}

	idx, err := LoadIndex(st, 1)
	if err != nil {
		t.Fatalf("missing index must not be an error, got %v", err)
	}
	if idx != nil {
		t.Fatal("LoadIndex invented an index")
	}

	src := &QuerySource{Store: st}
	q, err := query.Parse(`SELECT COUNT(*) AS n FROM frozen/snap-1/companies WHERE Raising`)
	if err != nil {
		t.Fatal(err)
	}
	plan := q.PlanFor(src)
	if plan.Route != query.RouteScan {
		t.Fatalf("route = %s, want scan fallback", plan.Route)
	}
	if !strings.Contains(plan.Fallback, "frozen/snap-1/companies") {
		t.Fatalf("fallback %q does not name snapshot 1's namespace", plan.Fallback)
	}

	// The unindexed snapshot still answers correctly.
	res, err := q.Execute(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range world1.Companies {
		if c.Raising {
			want++
		}
	}
	if len(res.Rows) != 1 || int(res.Rows[0][0].(float64)) != want {
		t.Fatalf("rows = %v, want n=%d", res.Rows, want)
	}

	// Its indexed neighbors still plan index routes.
	for _, snapNS := range []string{"frozen/snap-0/companies", "frozen/snap-2/companies"} {
		q, err := query.Parse(fmt.Sprintf("SELECT COUNT(*) AS n FROM %s WHERE Raising", snapNS))
		if err != nil {
			t.Fatal(err)
		}
		if plan := q.PlanFor(src); plan.Route == query.RouteScan {
			t.Fatalf("%s: unexpectedly fell back: %s", snapNS, plan.Explain())
		}
	}
}
