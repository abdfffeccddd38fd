package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"

	"crowdscope/internal/query"
	"crowdscope/internal/snapshot"
)

// buildFixtureFrozen freezes the shared fixture store's snapshot 0 once.
func buildFixtureFrozen(t *testing.T) {
	t.Helper()
	if HasFrozen(fixStore, 0) {
		return
	}
	snap, err := BuildFrozen(context.Background(), fixStore, -1)
	if err != nil {
		t.Fatal(err)
	}
	if snap != 0 {
		t.Fatalf("BuildFrozen froze snapshot %d, want 0", snap)
	}
}

func TestFrozenRoundTripMatchesJSONPath(t *testing.T) {
	buildFixtureFrozen(t)
	if !HasFrozen(fixStore, 0) {
		t.Fatal("HasFrozen = false after BuildFrozen")
	}
	if latest, err := LatestFrozen(fixStore); err != nil || latest != 0 {
		t.Fatalf("LatestFrozen = %d, %v", latest, err)
	}
	fs, err := LoadFrozen(fixStore, -1)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Snapshot != 0 {
		t.Fatalf("loaded snapshot tag %d", fs.Snapshot)
	}

	companies, err := LoadCompanies(context.Background(), fixStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	investors, err := LoadInvestors(context.Background(), fixStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fs.Companies, companies) {
		t.Fatal("frozen companies differ from the loader's rows")
	}
	if len(fs.Investors) != len(investors) {
		t.Fatalf("investor counts differ: %d vs %d", len(fs.Investors), len(investors))
	}
	for i := range investors {
		if fs.Investors[i].ID != investors[i].ID ||
			fs.Investors[i].Follows != investors[i].Follows ||
			!reflect.DeepEqual(fs.Investors[i].Investments, investors[i].Investments) {
			t.Fatalf("investor %d differs: %+v vs %+v", i, fs.Investors[i], investors[i])
		}
	}

	b := investorGraph(investors)
	if fs.Graph.NumLeft() != b.NumLeft() || fs.Graph.NumRight() != b.NumRight() || fs.Graph.NumEdges() != b.NumEdges() {
		t.Fatal("frozen graph sizes differ from the loader rows' graph")
	}
	for u := int32(0); int(u) < b.NumLeft(); u++ {
		if fs.Graph.LeftLabel(u) != b.LeftLabel(u) {
			t.Fatalf("left label %d differs", u)
		}
		fw, bw := fs.Graph.Fwd(u), b.Fwd(u)
		if len(fw) != len(bw) {
			t.Fatalf("fwd row %d length differs", u)
		}
		for i := range fw {
			if fw[i] != bw[i] {
				t.Fatalf("fwd row %d differs at %d", u, i)
			}
		}
	}
	for v := int32(0); int(v) < b.NumRight(); v++ {
		if fs.Graph.RightLabel(v) != b.RightLabel(v) {
			t.Fatalf("right label %d differs", v)
		}
	}
}

// TestFrozenAnalysesBitIdentical runs the snapshot's analyses on the
// graph of the loader's rows and on the decoded artifact's graph and
// requires byte-identical JSON serializations.
func TestFrozenAnalysesBitIdentical(t *testing.T) {
	buildFixtureFrozen(t)
	fs, err := LoadFrozen(fixStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	investors, err := LoadInvestors(context.Background(), fixStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := investorGraph(investors)
	k := fixWorld.Cfg.NumCommunities()

	fromLoader, _, _, err := detectCommunities(b, 4, k, 3, Budget{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	fromFrozen, _, _, err := detectCommunities(fs.Graph, 4, k, 3, Budget{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(fromLoader.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := json.Marshal(fromFrozen.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if string(jb) != string(jf) {
		t.Fatal("community assignments differ between loaded and decoded graphs")
	}
	if fromLoader.MeanSize != fromFrozen.MeanSize {
		t.Fatal("community mean sizes differ")
	}

	gb, gf := InvestorGraphStats(b), InvestorGraphStats(fs.Graph)
	if !reflect.DeepEqual(gb, gf) {
		t.Fatalf("graph stats differ: %+v vs %+v", gb, gf)
	}
	f3b, f3f := RunFig3(investors), RunFig3(fs.Investors)
	if !reflect.DeepEqual(f3b, f3f) {
		t.Fatal("Fig3 differs between JSON and frozen investors")
	}

	f4b, err := RunFig4(fromLoader, 3, 5000, 31)
	if err != nil {
		t.Fatal(err)
	}
	f4f, err := RunFig4(fromFrozen, 3, 5000, 31)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f4b, f4f) {
		t.Fatal("Fig4 differs between loaded and decoded graphs")
	}
}

// TestDecodeFrozenRejectsUnsortedRows: an artifact whose rows are out
// of ID order or duplicated — its CRCs valid, so only the decoder can
// tell — fails with ErrCorrupt instead of decoding to a snapshot that
// ApplyDelta's sorted merge and every binary-searched ID lookup would
// then get wrong.
func TestDecodeFrozenRejectsUnsortedRows(t *testing.T) {
	_, world := newWorldGen(3, 32)
	for name, corrupt := range map[string]func(fs *FrozenSnapshot){
		"swapped companies":   func(fs *FrozenSnapshot) { fs.Companies[1], fs.Companies[2] = fs.Companies[2], fs.Companies[1] },
		"duplicated company":  func(fs *FrozenSnapshot) { fs.Companies[2] = fs.Companies[1] },
		"swapped investors":   func(fs *FrozenSnapshot) { fs.Investors[1], fs.Investors[2] = fs.Investors[2], fs.Investors[1] },
		"duplicated investor": func(fs *FrozenSnapshot) { fs.Investors[2] = fs.Investors[1] },
	} {
		t.Run(name, func(t *testing.T) {
			fs := &FrozenSnapshot{Companies: slices.Clone(world.Companies), Investors: slices.Clone(world.Investors), Graph: world.Graph}
			corrupt(fs)
			data, err := EncodeFrozen(fs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeFrozen(data); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestFrozenRebuildReplacesArtifact(t *testing.T) {
	buildFixtureFrozen(t)
	// crowdscope query -rebuild-snapshot re-runs the freeze over an existing blob.
	if _, err := BuildFrozen(context.Background(), fixStore, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFrozen(fixStore, 0); err != nil {
		t.Fatal(err)
	}
}

func TestQuerySourceFrozenNamespaces(t *testing.T) {
	buildFixtureFrozen(t)
	src := &QuerySource{Store: fixStore}

	companies, err := LoadCompanies(context.Background(), fixStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Run(context.Background(), src, "SELECT COUNT(*) AS n FROM frozen/snap-000000/companies")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != float64(len(companies)) {
		t.Fatalf("companies count = %v, want %d", res.Rows, len(companies))
	}

	investors, err := LoadInvestors(context.Background(), fixStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err = query.Run(context.Background(), src, "SELECT COUNT(*) AS n FROM frozen/snap-000000/investors WHERE LEN(Investments) >= 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != float64(len(investors)) {
		t.Fatalf("investors count = %v, want %d", res.Rows, len(investors))
	}

	// Ordinary namespaces pass through to the store unchanged.
	res, err = query.Run(context.Background(), src, "SELECT COUNT(*) AS n FROM angellist/startups")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("passthrough rows = %v", res.Rows)
	}

	if err := src.ScanContext(context.Background(), "frozen/snap-000000/ghosts", func([]byte) error { return nil }); err == nil {
		t.Fatal("unknown frozen table must error")
	}
	if err := src.ScanContext(context.Background(), "frozen/snap-000099/companies", func([]byte) error { return nil }); err == nil {
		t.Fatal("unknown snapshot number must surface the LoadFrozen error")
	}
	if _, err := query.Run(context.Background(), src, "SELECT COUNT(*) AS n FROM frozen/snap-000099/companies"); err == nil {
		t.Fatal("querying a nonexistent snapshot must error, not return empty rows")
	}
	if ti, err := src.TableIndex("frozen/snap-000099/companies"); ti != nil || err != nil {
		t.Fatalf("TableIndex of a nonexistent snapshot = %v, %v; want nil, nil (not indexed)", ti, err)
	}
	if err := src.ScanContext(context.Background(), "frozen/oops", func([]byte) error { return nil }); err == nil {
		t.Fatal("malformed frozen namespace must error")
	}
	// A negative tag names no snapshot: it must not read as the latest.
	for _, ns := range []string{"frozen/snap--1/companies", "frozen/snap--7/companies"} {
		if res, err := query.Run(context.Background(), src, "SELECT COUNT(*) AS n FROM "+ns); err == nil {
			t.Fatalf("%s answered %v; a negative snapshot tag must error", ns, res.Rows)
		}
	}
	if _, err := src.Frozen(context.Background(), -1); err == nil {
		t.Fatal("Frozen(-1) must error, not load the latest snapshot")
	}
}
