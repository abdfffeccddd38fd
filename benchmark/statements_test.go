package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"crowdscope/internal/core"
	"crowdscope/internal/query"
)

// testSnapshot builds a small frozen snapshot through the collection
// path and returns the harness-side view and query source over it.
func testSnapshot(t *testing.T, seed int64) (*snapshotView, *core.QuerySource) {
	t.Helper()
	c, err := collect(context.Background(), nil, noSpan, 0, filepath.Join(t.TempDir(), "store"), seed, 0.003, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.LoadFrozen(c.st, 0)
	if err != nil {
		t.Fatal(err)
	}
	return newSnapshotView(fs), &core.QuerySource{Store: c.st}
}

func formats(stmts []*stmt) []string {
	out := make([]string, len(stmts))
	for i, s := range stmts {
		out[i] = s.format
	}
	return out
}

func TestPopulationsAndStreamsAreSeedDeterministic(t *testing.T) {
	view, _ := testSnapshot(t, 11)
	a, err := indexedPopulation(5, view, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := indexedPopulation(5, view, 300)
	if err != nil {
		t.Fatal(err)
	}
	other, err := indexedPopulation(6, view, 300)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb, fo := formats(a), formats(b), formats(other)
	same, differs := true, false
	seen := map[string]bool{}
	for i := range fa {
		same = same && fa[i] == fb[i]
		differs = differs || fa[i] != fo[i]
		if seen[fa[i]] {
			t.Errorf("population repeats %q", fa[i])
		}
		seen[fa[i]] = true
	}
	if !same {
		t.Error("the same seed gave two different populations")
	}
	if !differs {
		t.Error("different seeds gave the same population")
	}

	rank := popularity(5, 300)
	s1, s2, s3 := newZipfStream(9, rank), newZipfStream(9, rank), newZipfStream(10, rank)
	same, differs = true, false
	counts := make([]int, 300)
	for i := 0; i < 5000; i++ {
		x, y, z := s1.next(), s2.next(), s3.next()
		same = same && x == y
		differs = differs || x != z
		counts[x]++
	}
	if !same || !differs {
		t.Errorf("zipf streams: same seed equal=%v, other seed differs=%v", same, differs)
	}
	if counts[rank[0]] <= counts[rank[len(rank)-1]] || counts[rank[0]] < 500 {
		t.Errorf("rank 0 drawn %d times, last rank %d times: not Zipf-skewed", counts[rank[0]], counts[rank[len(rank)-1]])
	}

	g1, g2 := newAdhocGen(3, view), newAdhocGen(3, view)
	seen = map[string]bool{}
	for i := 0; i < 400; i++ {
		x, err := g1.next()
		if err != nil {
			t.Fatal(err)
		}
		y, err := g2.next()
		if err != nil {
			t.Fatal(err)
		}
		if x.format != y.format {
			t.Fatalf("ad-hoc statement %d differs between equal seeds", i)
		}
		if seen[x.format] {
			t.Fatalf("ad-hoc generator repeated %q", x.format)
		}
		seen[x.format] = true
	}
}

// The oracle shares no code with the engine, so agreement here is
// evidence for both; and the planner must split the two populations the
// way the workloads assume.
func TestOracleAgreesWithEngineAndGuardHolds(t *testing.T) {
	view, src := testSnapshot(t, 12)
	indexed, err := indexedPopulation(1, view, 250)
	if err != nil {
		t.Fatal(err)
	}
	indexed = append(indexed, firstQuery)
	gen := newAdhocGen(1, view)
	var scans []*stmt
	for i := 0; i < 60; i++ {
		s, err := gen.next()
		if err != nil {
			t.Fatal(err)
		}
		scans = append(scans, s)
	}
	if err := guardRoutes(src, indexed, 0, false); err != nil {
		t.Error(err)
	}
	if err := guardRoutes(src, scans, 0, true); err != nil {
		t.Error(err)
	}
	if err := guardRoutes(src, scans[:1], 0, false); err == nil {
		t.Error("guard accepted a scan statement as index-routed")
	}
	for _, s := range append(indexed, scans...) {
		res, err := query.Run(context.Background(), src, s.sql(0))
		if err != nil {
			t.Fatalf("%s: %v", s.sql(0), err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := expectedBody(s.expect(view.fs))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s:\n engine %.200s\n oracle %.200s", s.sql(0), got, want)
		}
	}
}

func TestVerifierCatchesChangedReplay(t *testing.T) {
	v := newVerifier([]*stmt{firstQuery, firstQuery})
	if !v.observe(0, []byte("a")) || !v.observe(0, []byte("a")) {
		t.Error("identical replay rejected")
	}
	if v.observe(0, []byte("b")) {
		t.Error("changed replay accepted")
	}
}
