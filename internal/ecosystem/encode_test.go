package ecosystem

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// FuzzGenRecordEncoders holds each hand-written record encoder to
// json.Marshal: for arbitrary field values — hostile strings, extreme
// ints, times with nanoseconds, in any zone, in and out of
// MarshalJSON's range — an encoder writes json.Marshal's bytes whenever
// json.Marshal succeeds and fails whenever it fails. Each encoder
// appends after a prefix, which must survive untouched.
func FuzzGenRecordEncoders(f *testing.F) {
	f.Add("s1", "Zenflow Labs", "https://facebook.com/zenflow-1", int64(3), int64(7), int64(1451606400), int64(0), int32(0), []byte{1, 0, 0, 0})
	f.Add("<&>", "\u2028\u2029", "\x00\x1f\"\\\x7f\b\f\n\r\t", int64(math.MinInt64), int64(math.MaxInt64),
		int64(253402300799), int64(999999999), int32(-5*3600), []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80})
	f.Add("\xff\xfe", "é日本\U0001F600", "", int64(-1), int64(0), int64(253402300800), int64(1), int32(25*3600), []byte{})
	f.Add("", "", "x", int64(0), int64(0), int64(-62167219200), int64(-1), int32(90), []byte(nil))
	f.Add("a", "b", "c", int64(1), int64(2), int64(-62167219201), int64(5e8), int32(-24*3600+60), []byte{0, 0, 0, 0, 9})
	f.Add("a<b", "c>d", "e&f", int64(127), int64(3), int64(1451606400), int64(123456789), int32(24*3600), []byte{7, 0, 0, 0})
	f.Add("\x01", " ", "\\", int64(-1), int64(-2), int64(0), int64(0), int32(-24*3600-60), []byte{})
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, i1, i2, sec, nsec int64, zone int32, raw []byte) {
		loc := time.UTC
		if zone != 0 {
			loc = time.FixedZone(s3, int(zone))
		}
		t1 := time.Unix(sec, nsec).In(loc)
		t2 := time.Unix(sec/3, -nsec).UTC()
		idx := make([]int32, len(raw)/4)
		for k := range idx {
			idx[k] = int32(binary.LittleEndian.Uint32(raw[4*k:]))
		}
		startups, users := idx[:len(idx)/2], idx[len(idx)/2:]
		some := func(bit int64, v []string) []string {
			if i1&bit == 0 {
				return nil
			}
			return v
		}
		str := func(bit int64, s string) string {
			if i1&bit == 0 {
				return ""
			}
			return s
		}
		prefix := []byte("prefix")
		check := func(name string, got []byte, gotErr error, v any) {
			t.Helper()
			want, wantErr := json.Marshal(v)
			switch {
			case wantErr != nil && gotErr == nil:
				t.Fatalf("%s: json.Marshal fails (%v), the encoder wrote %q", name, wantErr, got)
			case wantErr == nil && gotErr != nil:
				t.Fatalf("%s: the encoder fails (%v), json.Marshal wrote %q", name, gotErr, want)
			case wantErr == nil && (!bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want)):
				t.Fatalf("%s:\n got %q\nwant %q", name, got, append(prefix, want...))
			}
		}

		s := &Startup{ID: s1, Name: s2, Raising: i2&1 != 0, HasDemoVideo: i2&2 != 0,
			FacebookURL: str(1, s3), TwitterURL: str(2, s2), CrunchBaseURL: str(4, s1),
			FounderIDs: some(8, []string{s1, s3})}
		check("startup", appendStartup(prefix, s), nil, s)

		u := &User{ID: s1, Name: s2, Role: Role(s3), Investments: some(16, []string{s3, s2, s1})}
		want := *u
		for _, i := range startups {
			want.FollowsStartups = append(want.FollowsStartups, startupID(int(i)))
		}
		for _, i := range users {
			want.FollowsUsers = append(want.FollowsUsers, userID(int(i)))
		}
		check("user", appendUser(prefix, u, startups, users), nil, &want)

		fb := &FacebookProfile{URL: s1, Name: s2, Location: s3, Likes: int(i1), RecentPosts: int(i2)}
		check("facebook", appendFacebook(prefix, s1, fb), nil, GenAugment[*FacebookProfile]{s1, fb})

		tw := &TwitterProfile{URL: s1, Username: s2, CreatedAt: t1, FollowersCount: int(i1),
			FriendsCount: int(i2), ListedCount: int(-i1), StatusesCount: int(i1 ^ i2),
			LatestStatus: s3, LatestStatusAt: t2}
		got, err := appendTwitter(prefix, s3, tw)
		check("twitter", got, err, GenAugment[*TwitterProfile]{s3, tw})

		cb := &CrunchBaseProfile{URL: s1, Name: s2, ALLink: str(32, s3)}
		if i1&64 != 0 {
			cb.Rounds = []FundingRound{
				{Date: t2, AmountUSD: i1, NumInvestors: int(i2), Series: s3},
				{Date: t1, AmountUSD: i2, NumInvestors: int(i1), Series: s1},
			}
		}
		got, err = appendCrunchBase(prefix, s2, cb)
		check("crunchbase", got, err, GenAugment[*CrunchBaseProfile]{s2, cb})
	})
}

// TestAppendIntMatchesStrconv: the digit-pair appender writes
// strconv.AppendInt's bytes at every digit-count boundary, at the int32
// and int64 extremes and on random values of every magnitude, after a
// prefix it leaves as it was, whether or not dst has room to spare.
func TestAppendIntMatchesStrconv(t *testing.T) {
	vals := []int64{0, math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32, math.MinInt32 - 1, math.MaxInt32 + 1}
	for p := int64(1); p <= math.MaxInt64/10; p *= 10 {
		for _, v := range []int64{p - 1, p, p + 1, 10*p - 1} {
			vals = append(vals, v, -v)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for range 10000 {
		vals = append(vals, int64(rng.Uint64())>>rng.Intn(64))
	}
	for _, v := range vals {
		want := strconv.AppendInt([]byte("p"), v, 10)
		for _, dst := range [][]byte{[]byte("p"), append(make([]byte, 0, 32), 'p')} {
			if got := appendInt(dst, v); !bytes.Equal(got, want) {
				t.Fatalf("appendInt(%d) = %q, want %q", v, got, want)
			}
		}
	}
}
