package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/parallel"
	"crowdscope/internal/store"
)

// nsPayloads returns every record of a crawl namespace, all shards.
func nsPayloads(t testing.TB, st *store.Store, ns string) [][]byte {
	t.Helper()
	var out [][]byte
	err := st.Scan(ns, func(p []byte) error {
		out = append(out, bytes.Clone(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProjectionRowsMatchTypedDecode is the projection contract: for
// every user and startup record of a generated world, the row built
// from the scanned projection equals the row the in-memory feeder
// builds from the full typed record.
func TestProjectionRowsMatchTypedDecode(t *testing.T) {
	st := generatedStore(t, 0.0055, 4)
	investors := 0
	for _, p := range nsPayloads(t, st, crawler.NSUsers) {
		var typed crawler.UserRecord
		var proj userRecord
		if err := json.Unmarshal(p, &typed); err != nil {
			t.Fatal(err)
		}
		if err := scanRecord(p, proj.scan); err != nil {
			t.Fatal(err)
		}
		want, wantOK := investorRow(typed.ID, typed.Investments, len(typed.FollowsStartups))
		got, gotOK := investorRow(proj.ID, proj.Investments, len(proj.Follows))
		if gotOK != wantOK || !reflect.DeepEqual(got, want) || proj.Snapshot != typed.Snapshot {
			t.Fatalf("user %s: projection row %+v (%v), typed row %+v (%v)", typed.ID, got, gotOK, want, wantOK)
		}
		if gotOK && got.Follows > 0 {
			investors++
		}
	}
	startups := nsPayloads(t, st, crawler.NSStartups)
	for _, p := range startups {
		var typed crawler.StartupRecord
		var proj startupRecord
		if err := json.Unmarshal(p, &typed); err != nil {
			t.Fatal(err)
		}
		if err := scanRecord(p, proj.scan); err != nil {
			t.Fatal(err)
		}
		cur := &crawler.Snapshot{Startups: map[string]*ecosystem.Startup{typed.ID: &typed.Startup}}
		if got, want := companyRow(&proj, nil, nil, nil), crawlCompany(cur, typed.ID); got != want || proj.Snapshot != typed.Snapshot {
			t.Fatalf("startup %s: projection row %+v, typed row %+v", typed.ID, got, want)
		}
	}
	if investors == 0 || len(startups) == 0 {
		t.Fatalf("contract vacuous: %d investors with follows, %d startups", investors, len(startups))
	}
}

// TestShardedFreezeWorkerCountInvariant: the shard walk gives the same
// rows and the same committed bytes at one worker and at four.
func TestShardedFreezeWorkerCountInvariant(t *testing.T) {
	defer parallel.SetDefaultWorkers(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	st := generatedStore(t, 0.0055, 8)
	var wantC []Company
	var wantI []Investor
	var wantSnap, wantIdx []byte
	for _, workers := range []int{1, 4} {
		parallel.SetDefaultWorkers(workers)
		companies, err := LoadCompanies(ctx, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		investors, err := LoadInvestors(ctx, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildFrozen(ctx, st, 0); err != nil {
			t.Fatal(err)
		}
		snapBlob, idxBlob := frozenBlobs(t, st, 0)
		if wantC == nil {
			wantC, wantI, wantSnap, wantIdx = companies, investors, snapBlob, idxBlob
			continue
		}
		if !reflect.DeepEqual(companies, wantC) || !reflect.DeepEqual(investors, wantI) {
			t.Fatalf("rows at %d workers differ from rows at 1", workers)
		}
		if !bytes.Equal(snapBlob, wantSnap) || !bytes.Equal(idxBlob, wantIdx) {
			t.Fatalf("artifact at %d workers differs from artifact at 1", workers)
		}
	}
	if len(wantC) == 0 || len(wantI) == 0 {
		t.Fatal("invariance vacuous: empty rows")
	}
}

// TestFreezeRejectsMalformedRecord: ingest splices without decoding, so
// a CRC-valid record that is not JSON must stop the freeze, with an
// error that names the namespace.
func TestFreezeRejectsMalformedRecord(t *testing.T) {
	ctx := context.Background()
	for ns, crawlNS := range map[string]string{
		ecosystem.NSGenStartups: crawler.NSStartups,
		ecosystem.NSGenUsers:    crawler.NSUsers,
		ecosystem.NSGenTwitter:  crawler.NSTwitter,
	} {
		st := generatedStore(t, 0.0001, 2)
		w, err := st.Writer(ns, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendRaw("x", []byte(`{"id":"x","follows_startups":["a",]}`)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := crawler.IngestGenerated(ctx, st, 1); err != nil {
			t.Fatalf("ingest is a splice and must not decode: %v", err)
		}
		if _, err := BuildFrozen(ctx, st, 1); err == nil || !strings.Contains(err.Error(), crawlNS) {
			t.Fatalf("freeze over a malformed %s record: error %v, want one naming the namespace", ns, err)
		}
	}
}

// TestFreezeRejectsRecordWithoutID: a startup or user record without an
// id must stop the freeze with an error naming its namespace, not freeze
// as a row with the empty ID.
func TestFreezeRejectsRecordWithoutID(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct{ ns, crawlNS, payload string }{
		{ecosystem.NSGenStartups, crawler.NSStartups, `{"name":"ghost"}`},
		{ecosystem.NSGenStartups, crawler.NSStartups, `{"snapshot":1}`},
		{ecosystem.NSGenUsers, crawler.NSUsers, `{"name":"ghost","investments":["s1"]}`},
	} {
		st := generatedStore(t, 0.0001, 2)
		w, err := st.Writer(c.ns, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendRaw("x", []byte(c.payload)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := crawler.IngestGenerated(ctx, st, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := BuildFrozen(ctx, st, 1); err == nil || !strings.Contains(err.Error(), c.crawlNS) {
			t.Fatalf("freeze over %s record %s: error %v, want one naming the namespace", c.ns, c.payload, err)
		}
	}
}
