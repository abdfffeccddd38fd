package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
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
// from the narrow projection equals the row the in-memory feeder builds
// from the full typed record.
func TestProjectionRowsMatchTypedDecode(t *testing.T) {
	st := generatedStore(t, 0.0055, 4)
	investors := 0
	for _, p := range nsPayloads(t, st, crawler.NSUsers) {
		var typed crawler.UserRecord
		var proj userRecord
		if err := json.Unmarshal(p, &typed); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(p, &proj); err != nil {
			t.Fatal(err)
		}
		want, wantOK := investorRow(typed.ID, typed.Investments, len(typed.FollowsStartups))
		got, gotOK := investorRow(proj.ID, proj.Investments, int(proj.Follows))
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
		if err := json.Unmarshal(p, &proj); err != nil {
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

// TestArrayLenIsStrict: the length decoder takes an array of strings
// (or nulls) or a null, and nothing else. Syntax is encoding/json's
// check, made before it calls an Unmarshaler, so the cases go through
// json.Unmarshal; handed broken input directly it must still not panic.
func TestArrayLenIsStrict(t *testing.T) {
	for in, want := range map[string]int{
		`null`: 0, ` null `: 0, `[]`: 0, ` [ ] `: 0, `["a"]`: 1, "[ \"a\" ,\n\"b\"\t]": 2,
		`["b\"]","c"]`: 2, `["\\","\u00e9\n","/"]`: 3, `[null,"a",null]`: 3, `["é","",""]`: 3, `["\u0022",","]`: 2,
	} {
		var n arrayLen = -1
		if err := json.Unmarshal([]byte(in), &n); err != nil || int(n) != want {
			t.Errorf("%q: length %d, error %v; want %d", in, n, err, want)
		}
	}
	for _, in := range []string{
		``, ` `, `[`, `]`, `["a"`, `["a",`, `["a",]`, `[,]`, `[,"a"]`, `["a" "b"]`, `["a"]]`, `["a"]x`,
		`[1]`, `["a",1]`, `[true]`, `[["a"]]`, `[{}]`, `{"a":"b"}`, `"a"`, `1`, `12`, `-1`, `true`, `nul`, `nullx`, `[nul]`,
		`["\q"]`, `["\u12"]`, `["\u12g4"]`, `["\`, `["\"]`, "[\"a\x01\"]", "[\"a\nb\"]",
	} {
		var n arrayLen = -1
		if err := json.Unmarshal([]byte(in), &n); err == nil || n != -1 {
			t.Errorf("%q: accepted with length %d", in, n)
		}
		_ = n.UnmarshalJSON([]byte(in))
	}
}

// FuzzUserProjection: whenever the typed crawler.UserRecord decode of
// the input succeeds, the projection succeeds with the same ID,
// investments, follow count and snapshot tag; and the length decoder
// agrees with a []string decode of the input in both directions. It
// never panics, whether or not encoding/json vetted the input first.
func FuzzUserProjection(f *testing.F) {
	for _, p := range nsPayloads(f, generatedStore(f, 0.0001, 1), crawler.NSUsers)[:8] {
		f.Add(p)
	}
	for _, s := range []string{
		`{"id":"u1","name":"n","role":"investor","follows_startups":["s1","s\"2","s\\u00e93"],"investments":["s1"],"snapshot":4}`,
		`{"id":"u1","follows_startups":["s1","s2"`,
		`{"id":"u1","follows_startups":["s1",7],"snapshot":1}`,
		`{"id":"u1","follows_startups":[null,"s2"],"follows_startups":null}`,
		`{"ID":"u1","Follows_Startups":["a"],"follows_users":[1],"investments":null}`,
		`["a","b\\"]`, ` [ null , "\\ud800" ] `, `["a",{}]`, `null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var typed crawler.UserRecord
		var proj userRecord
		projErr := json.Unmarshal(data, &proj)
		if json.Unmarshal(data, &typed) == nil {
			if projErr != nil {
				t.Fatalf("typed decode succeeds, projection fails: %v", projErr)
			}
			if proj.ID != typed.ID || !slices.Equal(proj.Investments, typed.Investments) ||
				int(proj.Follows) != len(typed.FollowsStartups) || proj.Snapshot != typed.Snapshot {
				t.Fatalf("projection %+v, typed %+v", proj, typed)
			}
		}
		var list []string
		var n arrayLen
		listErr, lenErr := json.Unmarshal(data, &list), json.Unmarshal(data, &n)
		if (listErr == nil) != (lenErr == nil) || (lenErr == nil && int(n) != len(list)) {
			t.Fatalf("[]string decode: %d elements, error %v; arrayLen: %d, error %v", len(list), listErr, n, lenErr)
		}
		_ = n.UnmarshalJSON(data)
	})
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
