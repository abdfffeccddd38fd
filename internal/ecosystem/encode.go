package ecosystem

import (
	"encoding/json"
	"math/bits"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// Hand-written JSON encoders for the five generated record shapes. Each
// appends exactly the bytes json.Marshal writes for the same value — key
// order, omitempty, string escaping, time format — so the streamed store
// keeps the bytes of the reflective encoding it replaced, while the emit
// path never reflects and allocates only for a time or a string that
// needs escaping. FuzzGenRecordEncoders holds every encoder to
// json.Marshal on arbitrary values.

// appendString appends s as a JSON string. Printable ASCII with nothing
// to escape is copied as it is; any other string goes through
// encoding/json, whose escaping (HTML characters, control bytes, invalid
// UTF-8, U+2028/2029) is the reference.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendStrings appends ss as a JSON array of strings.
func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for k, s := range ss {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendIDs appends the JSON array of the IDs generation gives the
// indices: prefix 's' writes startupID(i) for each index, 'u' userID(i).
func appendIDs(dst []byte, prefix byte, idx []int32) []byte {
	dst = append(dst, '[')
	for k, i := range idx {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(append(dst, '"', prefix), int64(i)+1)
		dst = append(dst, '"')
	}
	return append(dst, ']')
}

// appendTime appends t as json.Marshal writes a time.Time: the bytes of
// its MarshalJSON, or MarshalJSON's error (a year outside [0,9999], a
// zone hour outside [0,23]).
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	b, err := t.MarshalJSON()
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// appendInt appends v in decimal, the bytes strconv.AppendInt(dst, v,
// 10) appends: it sizes the number first, then writes it in place from
// its last digit, two digits a step from digitPairs.
func appendInt(dst []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		dst, u = append(dst, '-'), -u
	}
	n := bits.Len64(u|1) * 1233 >> 12 // log10(2) ≈ 1233/4096: the digit count or one less
	if u >= pow10[n] {
		n++
	}
	n = max(n, 1)
	dst = slices.Grow(dst, n)
	i := len(dst) + n
	dst = dst[:i]
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		i -= 2
		dst[i], dst[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		dst[i-2], dst[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		dst[i-1] = byte('0' + u)
	}
	return dst
}

// pow10[k] is 10^k, up to the largest power a uint64 holds.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = 10 * p[k-1]
	}
	return p
}()

// digitPairs holds "00" to "99", back to back.
var digitPairs = func() (p [200]byte) {
	for d := range 100 {
		p[2*d], p[2*d+1] = byte('0'+d/10), byte('0'+d%10)
	}
	return p
}()

// appendStartup appends s as json.Marshal encodes a Startup.
func appendStartup(dst []byte, s *Startup) []byte {
	dst = appendString(append(dst, `{"id":`...), s.ID)
	dst = appendString(append(dst, `,"name":`...), s.Name)
	dst = strconv.AppendBool(append(dst, `,"raising":`...), s.Raising)
	dst = strconv.AppendBool(append(dst, `,"has_demo_video":`...), s.HasDemoVideo)
	if s.FacebookURL != "" {
		dst = appendString(append(dst, `,"facebook_url":`...), s.FacebookURL)
	}
	if s.TwitterURL != "" {
		dst = appendString(append(dst, `,"twitter_url":`...), s.TwitterURL)
	}
	if s.CrunchBaseURL != "" {
		dst = appendString(append(dst, `,"crunchbase_url":`...), s.CrunchBaseURL)
	}
	if len(s.FounderIDs) > 0 {
		dst = appendStrings(append(dst, `,"founder_ids":`...), s.FounderIDs)
	}
	return append(dst, '}')
}

// appendUser appends u as json.Marshal encodes a User whose
// FollowsStartups and FollowsUsers are the IDs of the startup and user
// indices given; u's own follow fields are not read.
func appendUser(dst []byte, u *User, startups, users []int32) []byte {
	dst = appendString(append(dst, `{"id":`...), u.ID)
	dst = appendString(append(dst, `,"name":`...), u.Name)
	dst = appendString(append(dst, `,"role":`...), string(u.Role))
	if len(startups) > 0 {
		dst = appendIDs(append(dst, `,"follows_startups":`...), 's', startups)
	}
	if len(users) > 0 {
		dst = appendIDs(append(dst, `,"follows_users":`...), 'u', users)
	}
	if len(u.Investments) > 0 {
		dst = appendStrings(append(dst, `,"investments":`...), u.Investments)
	}
	return append(dst, '}')
}

// appendAugmentHead opens a GenAugment record up to its profile value.
func appendAugmentHead(dst []byte, startupID string) []byte {
	dst = appendString(append(dst, `{"startup_id":`...), startupID)
	return append(dst, `,"profile":`...)
}

// appendFacebook appends the GenAugment record of a Facebook profile.
func appendFacebook(dst []byte, startupID string, p *FacebookProfile) []byte {
	dst = appendAugmentHead(dst, startupID)
	dst = appendString(append(dst, `{"url":`...), p.URL)
	dst = appendString(append(dst, `,"name":`...), p.Name)
	dst = appendString(append(dst, `,"location":`...), p.Location)
	dst = appendInt(append(dst, `,"likes":`...), int64(p.Likes))
	dst = appendInt(append(dst, `,"recent_posts":`...), int64(p.RecentPosts))
	return append(dst, "}}"...)
}

// appendTwitter appends the GenAugment record of a Twitter profile. It
// fails where json.Marshal does: on a time MarshalJSON rejects.
func appendTwitter(dst []byte, startupID string, p *TwitterProfile) ([]byte, error) {
	dst = appendAugmentHead(dst, startupID)
	dst = appendString(append(dst, `{"url":`...), p.URL)
	dst = appendString(append(dst, `,"username":`...), p.Username)
	dst, err := appendTime(append(dst, `,"created_at":`...), p.CreatedAt)
	if err != nil {
		return dst, err
	}
	dst = appendInt(append(dst, `,"followers_count":`...), int64(p.FollowersCount))
	dst = appendInt(append(dst, `,"friends_count":`...), int64(p.FriendsCount))
	dst = appendInt(append(dst, `,"listed_count":`...), int64(p.ListedCount))
	dst = appendInt(append(dst, `,"statuses_count":`...), int64(p.StatusesCount))
	dst = appendString(append(dst, `,"latest_status":`...), p.LatestStatus)
	if dst, err = appendTime(append(dst, `,"latest_status_at":`...), p.LatestStatusAt); err != nil {
		return dst, err
	}
	return append(dst, "}}"...), nil
}

// appendCrunchBase appends the GenAugment record of a CrunchBase
// profile. It fails where json.Marshal does: on a round date
// MarshalJSON rejects.
func appendCrunchBase(dst []byte, startupID string, p *CrunchBaseProfile) ([]byte, error) {
	dst = appendAugmentHead(dst, startupID)
	dst = appendString(append(dst, `{"url":`...), p.URL)
	dst = appendString(append(dst, `,"name":`...), p.Name)
	if p.ALLink != "" {
		dst = appendString(append(dst, `,"angellist_url":`...), p.ALLink)
	}
	if len(p.Rounds) > 0 {
		dst = append(dst, `,"rounds":[`...)
		for k, r := range p.Rounds {
			if k > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendTime(append(dst, `{"date":`...), r.Date); err != nil {
				return dst, err
			}
			dst = appendInt(append(dst, `,"amount_usd":`...), r.AmountUSD)
			dst = appendInt(append(dst, `,"num_investors":`...), int64(r.NumInvestors))
			dst = appendString(append(dst, `,"series":`...), r.Series)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}}"...), nil
}
