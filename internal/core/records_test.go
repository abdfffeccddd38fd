package core

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"crowdscope/internal/crawler"
)

// The reference projections: json.Unmarshal into these is what the
// scanner must reproduce. A []string stands for the follow list whose
// length the scanner counts.
type (
	startupRef struct {
		ID           string `json:"id"`
		Name         string `json:"name"`
		Raising      bool   `json:"raising"`
		HasDemoVideo bool   `json:"has_demo_video"`
		FacebookURL  string `json:"facebook_url"`
		TwitterURL   string `json:"twitter_url"`
		Snapshot     int    `json:"snapshot"`
	}
	userRef struct {
		ID              string   `json:"id"`
		Investments     []string `json:"investments"`
		FollowsStartups []string `json:"follows_startups"`
		Snapshot        int      `json:"snapshot"`
	}
	augmentRef[P any] struct {
		StartupID string `json:"startup_id"`
		Profile   P      `json:"profile"`
		Snapshot  int    `json:"snapshot"`
	}
	cbRef struct {
		Rounds []struct {
			AmountUSD int64 `json:"amount_usd"`
		} `json:"rounds"`
	}
	fbRef struct {
		Likes int `json:"likes"`
	}
	twRef struct {
		StatusesCount  int `json:"statuses_count"`
		FollowersCount int `json:"followers_count"`
	}
)

// scanRecord scans one payload with a fresh lexer.
func scanRecord(b []byte, scan func(*lexer) error) error {
	var l lexer
	return l.record(b, scan)
}

// scanAugmentRecord scans data as an augmentation record of profile T.
func scanAugmentRecord[T any](data []byte) (crawler.AugmentRecord[T], error) {
	var r crawler.AugmentRecord[T]
	err := scanRecord(data, func(l *lexer) error { return scanAugment(&r, l) })
	return r, err
}

// agree fails t unless the scan and the reference decode both accept or
// both reject, and, when they accept, same holds.
func agree(t *testing.T, what string, scanErr, refErr error, same func() bool, got, want any) {
	t.Helper()
	if (scanErr == nil) != (refErr == nil) {
		t.Fatalf("%s: scan error %v, json.Unmarshal error %v", what, scanErr, refErr)
	}
	if scanErr == nil && !same() {
		t.Fatalf("%s: scanned %+v, json.Unmarshal %+v", what, got, want)
	}
}

// freezeDecoderSeeds are the inputs that make each of the scanner's
// promises observable: key folding, repeated members, nulls, slices
// decoded over their old elements, strings encoding/json rewrites,
// integers it refuses, nesting and trailing bytes.
var freezeDecoderSeeds = []string{
	// Keys: exact match first, then case folding, U+212A and U+017F too.
	`{"ID":"a","id":"b","Id":"c"}`, `{"id":"b","ID":"a"}`, `{"Snapshot":2,"SNAPSHOT":3}`,
	`{"\u017fnapshot":3,"li\u212aes":4}`, "{\"\u017fnapshot\":5,\"li\u212aes\":6,\"has_demo_video\":true}",
	`{"startup_id":"s","STARTUP_ID":"t","Profile":{"LIKES":7}}`, `{"id":"x","follows_startups":["a"]}`,
	`{"ids":"x","i":"y","id ":"z","snapshot_":1,"snap­shot":2}`, `{"id":"a","İd":"b","ıd":"c"}`,
	// Repeated members: the later wins, null keeps, objects merge.
	`{"id":"a","id":null,"snapshot":1,"snapshot":null,"raising":true,"raising":null}`,
	`{"profile":{"statuses_count":1},"profile":{"followers_count":2},"profile":null}`,
	`{"profile":{"likes":1},"profile":{},"profile":{"likes":null}}`,
	`{"investments":["a","b","c"],"investments":["x"],"investments":[null,null,null]}`,
	`{"investments":["a"],"investments":[],"investments":[null]}`, `{"investments":["a"],"investments":null}`,
	`{"profile":{"rounds":[{"amount_usd":5},{"amount_usd":6}]},"profile":{"rounds":[{}]},"profile":{"rounds":[null,{}]}}`,
	`{"profile":{"rounds":[]}}`, `{"profile":{"rounds":null}}`, `{"profile":{"rounds":[{"amount_usd":1}]}}`,
	`{"follows_startups":["a","b"],"follows_startups":null}`, `{"follows_startups":["a"],"follows_startups":[null,null]}`,
	// Strings encoding/json unquotes: escapes, bad UTF-8, surrogates.
	`{"id":"aé\"\\\/\b\f\n\r\t","name":"\ud800","facebook_url":"😀","twitter_url":"\udc00\ud800x"}`,
	"{\"id\":\"a\xffb\",\"name\":\"\xed\xa0\x80\",\"investments\":[\"\xc3\",\"é\"]}",
	"{\"id\":\"a\nb\"}", `{"id":"\x"}`, `{"id":"\u12"}`, `{"id":"\u12g4"}`, `{"id":"abc`, `{"id":"a\`,
	`{"id":1}`, `{"id":true}`, `{"id":[]}`, `{"id":{}}`, `{"raising":"true"}`, `{"raising":1}`, `{"raising":tru}`,
	// Integers: no fraction, no exponent, no overflow.
	`{"snapshot":1.0}`, `{"snapshot":1e2}`, `{"snapshot":1E+2}`, `{"snapshot":-0}`, `{"snapshot":01}`, `{"snapshot":-}`,
	`{"snapshot":9223372036854775807}`, `{"snapshot":9223372036854775808}`, `{"snapshot":-9223372036854775808}`,
	`{"snapshot":-9223372036854775809}`, `{"snapshot":18446744073709551616}`, `{"snapshot":"1"}`, `{"snapshot":1.}`,
	`{"profile":{"rounds":[{"amount_usd":99999999999999999999}]}}`, `{"profile":{"likes":-1.5e-3}}`,
	// Structure: top-level kinds, trailing bytes, syntax, nesting.
	``, ` `, ` null `, `nul`, `nullx`, `{}`, `{} `, `{}}`, `{} x`, `[]`, `"s"`, `1`, `true`, `{`, `}`,
	`{"a":1,}`, `{,"a":1}`, `{"a" 1}`, `{"a":1 "b":2}`, `{"a":[1,]}`, `{"a":[,1]}`, `{"a":[1 2]}`, `{1:2}`,
	`{"a":{"b":[true,false,null,-1.5e+7,"x",{}]}}`, `{"a":tRue}`, `{"a":-}`, `{"a":.5}`, `{"a":+1}`, "\ufeff{}",
	`{"x":[[[{"y":[[{}]]}]]],"id":"a"}`, `{"x":[[[{"y":[[{}]]}]]]],"id":"a"}`,
}

// plainArrays are the arrays at the edge of the scanner's one-loop path
// for arrays of plain strings: each must take the general path and
// still agree with encoding/json.
var plainArrays = []string{
	`["s1","s2"]`, `[ "s1" , "s2" ]`, `["s1", "s2"]`, `["s\"1"]`, `["\u0073\u0031"]`,
	"[\"s\u00e9\"]", "[\"s\xc3\xa9\"]", "[\"s\x1f\"]", "[\"s1\",\"\x7f\"]",
	`[]`, `[ ]`, `null`, `[,]`, `["s1",]`, `["s1"`, `["s1`, `["s1",`, `["s1";"s2"]`, `["s1"]]`,
	`[""]`, `["s1",2]`, `["s1",null]`, `["s1",["s2"]]`,
}

// plainArrayRecords places each of plainArrays where the freeze meets
// an ID list: a follow list it counts, a follow list and a founder list
// it steps over, and the investments it keeps.
func plainArrayRecords() []string {
	var out []string
	for _, a := range plainArrays {
		for _, key := range []string{"follows_startups", "follows_users", "founder_ids", "investments"} {
			out = append(out, `{"id":"u1",`+strconv.Quote(key)+`:`+a+`,"snapshot":2}`)
		}
	}
	return out
}

// TestPlainStringArrays: on arrays of plain strings and on every array
// just off that shape, the scanners agree with encoding/json, also where
// the array sits exactly at and one past the nesting limit.
func TestPlainStringArrays(t *testing.T) {
	for _, rec := range plainArrayRecords() {
		decodersAgree(t, []byte(rec))
	}
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		for _, a := range []string{`["s1","s2"]`, `[]`} {
			decodersAgree(t, []byte(strings.Repeat("[", depth-1)+a+strings.Repeat("]", depth-1)))
			decodersAgree(t, []byte(`{"follows_startups":`+strings.Repeat("[", depth-1)+a+strings.Repeat("]", depth-1)+`}`))
			decodersAgree(t, []byte(`{"founder_ids":`+strings.Repeat("[", depth-1)+a+strings.Repeat("]", depth-1)+`}`))
		}
	}
}

// FuzzFreezeDecoders holds each of the freeze's scanners to
// json.Unmarshal into the same projection: for any bytes both accept or
// both reject, and on acceptance every field agrees, slice nil-ness
// included. And a typed crawler.UserRecord decode that succeeds implies
// a user scan that succeeds with the typed record's values.
func FuzzFreezeDecoders(f *testing.F) {
	// First, in their order, the seeds of the user-projection target this
	// one replaced: eight generated user records, then its hand-written
	// inputs.
	st := generatedStore(f, 0.0001, 1)
	for _, p := range nsPayloads(f, st, crawler.NSUsers)[:8] {
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
	for _, ns := range []string{crawler.NSStartups, crawler.NSCrunchBase, crawler.NSFacebook, crawler.NSTwitter} {
		payloads := nsPayloads(f, st, ns)
		for _, p := range payloads[:min(4, len(payloads))] {
			f.Add(p)
		}
	}
	for _, s := range freezeDecoderSeeds {
		f.Add([]byte(s))
	}
	for _, s := range plainArrayRecords() {
		f.Add([]byte(s))
	}
	f.Fuzz(decodersAgree)
}

// decodersAgree is FuzzFreezeDecoders' property for one input.
func decodersAgree(t *testing.T, data []byte) {
	var s startupRecord
	var sRef startupRef
	agree(t, "startup", scanRecord(data, s.scan), json.Unmarshal(data, &sRef),
		func() bool { return startupRef(s) == sRef }, s, sRef)

	var u userRecord
	var uRef userRef
	agree(t, "user", scanRecord(data, u.scan), json.Unmarshal(data, &uRef), func() bool {
		return u.ID == uRef.ID && reflect.DeepEqual(u.Investments, uRef.Investments) &&
			len(u.Follows) == len(uRef.FollowsStartups) && u.Snapshot == uRef.Snapshot
	}, u, uRef)

	cb, cbErr := scanAugmentRecord[cbProfile](data)
	var cbR augmentRef[cbRef]
	agree(t, "crunchbase", cbErr, json.Unmarshal(data, &cbR), func() bool {
		same := cb.StartupID == cbR.StartupID && cb.Snapshot == cbR.Snapshot &&
			len(cb.Profile.Rounds) == len(cbR.Profile.Rounds) && (cb.Profile.Rounds == nil) == (cbR.Profile.Rounds == nil)
		for i := 0; same && i < len(cb.Profile.Rounds); i++ {
			same = cb.Profile.Rounds[i].AmountUSD == cbR.Profile.Rounds[i].AmountUSD
		}
		return same
	}, cb, cbR)

	fb, fbErr := scanAugmentRecord[fbProfile](data)
	var fbR augmentRef[fbRef]
	agree(t, "facebook", fbErr, json.Unmarshal(data, &fbR), func() bool {
		return fb.StartupID == fbR.StartupID && fb.Snapshot == fbR.Snapshot && fbRef(fb.Profile) == fbR.Profile
	}, fb, fbR)

	tw, twErr := scanAugmentRecord[twProfile](data)
	var twR augmentRef[twRef]
	agree(t, "twitter", twErr, json.Unmarshal(data, &twR), func() bool {
		return tw.StartupID == twR.StartupID && tw.Snapshot == twR.Snapshot && twRef(tw.Profile) == twR.Profile
	}, tw, twR)

	var tag int
	var tagRef struct{ Snapshot int }
	agree(t, "snapshot tag", scanRecord(data, func(l *lexer) error { return l.fields([]string{"snapshot"}, &tag) }),
		json.Unmarshal(data, &tagRef), func() bool { return tag == tagRef.Snapshot }, tag, tagRef)

	var typed crawler.UserRecord
	if json.Unmarshal(data, &typed) == nil {
		var u userRecord
		if err := scanRecord(data, u.scan); err != nil {
			t.Fatalf("typed decode succeeds, user scan fails: %v", err)
		}
		if u.ID != typed.ID || !reflect.DeepEqual(u.Investments, typed.Investments) ||
			len(u.Follows) != len(typed.FollowsStartups) || u.Snapshot != typed.Snapshot {
			t.Fatalf("user scan %+v, typed %+v", u, typed)
		}
	}
}

// TestScannerNestingLimit: the scanners reject exactly what exceeds
// encoding/json's nesting limit (kept out of the fuzz corpus, whose
// minimizer crawls over inputs this deep).
func TestScannerNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 2, maxDepth - 1, maxDepth} {
		decodersAgree(t, []byte(`{"x":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`,"id":"a"}`))
		decodersAgree(t, []byte(strings.Repeat(`{"profile":`, depth)+"{}"+strings.Repeat("}", depth)))
	}
}

// TestUserScanAllocatesOnlyItsStrings: a user scan allocates the strings
// it returns and the slice holding the investments, nothing for the
// follow lists or anything else it steps over.
func TestUserScanAllocatesOnlyItsStrings(t *testing.T) {
	for payload, want := range map[string]float64{
		`{"id":"u1","name":"n","role":"founder","follows_startups":["s1","s2","s3"],"follows_users":["u2","u3"],"snapshot":4}`:             1,
		`{"id":"u1","name":"n","role":"investor","follows_startups":["s1","s2"],"follows_users":["u2"],"investments":["s1"],"snapshot":4}`: 3,
	} {
		data := []byte(payload)
		var l lexer // one per shard scan
		got := testing.AllocsPerRun(100, func() {
			var u userRecord
			if err := l.record(data, u.scan); err != nil || u.ID != "u1" {
				t.Fatalf("scan: %+v, %v", u, err)
			}
		})
		if got != want {
			t.Errorf("%s: %v allocations per scan, want %v", payload, got, want)
		}
	}
}
