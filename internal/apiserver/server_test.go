package apiserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdscope/internal/ecosystem"
)

var (
	worldOnce sync.Once
	world     *ecosystem.World
)

func testWorld(t *testing.T) *ecosystem.World {
	t.Helper()
	worldOnce.Do(func() {
		w, err := ecosystem.Generate(ecosystem.NewConfig(11, 0.002))
		if err != nil {
			panic(err)
		}
		world = w
	})
	return world
}

func newServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(testWorld(t), opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url, token string, out any) int {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestAuthRequired(t *testing.T) {
	_, ts := newServer(t, Options{Tokens: []string{"secret"}})
	if code := get(t, ts.URL+"/angellist/startups/raising", "", nil); code != http.StatusUnauthorized {
		t.Errorf("no token: code %d", code)
	}
	if code := get(t, ts.URL+"/angellist/startups/raising", "wrong", nil); code != http.StatusUnauthorized {
		t.Errorf("bad token: code %d", code)
	}
	if code := get(t, ts.URL+"/angellist/startups/raising", "secret", nil); code != http.StatusOK {
		t.Errorf("good token: code %d", code)
	}
}

func TestQueryParamToken(t *testing.T) {
	_, ts := newServer(t, Options{Tokens: []string{"qp"}})
	resp, err := http.Get(ts.URL + "/angellist/startups/raising?access_token=qp")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("query param token: code %d", resp.StatusCode)
	}
}

func TestRaisingPagination(t *testing.T) {
	w := testWorld(t)
	_, ts := newServer(t, Options{Tokens: []string{"tk"}, PageSize: 3})
	var all []string
	page := 1
	for {
		var resp RaisingResponse
		if code := get(t, fmt.Sprintf("%s/angellist/startups/raising?page=%d", ts.URL, page), "tk", &resp); code != http.StatusOK {
			t.Fatalf("page %d: code %d", page, code)
		}
		if resp.Page != page {
			t.Fatalf("echoed page %d != %d", resp.Page, page)
		}
		all = append(all, resp.Startups...)
		if page >= resp.LastPage {
			break
		}
		page++
	}
	want := 0
	for _, s := range w.Startups {
		if s.Raising {
			want++
		}
	}
	if len(all) != want {
		t.Fatalf("raising listing = %d, want %d", len(all), want)
	}
	seen := map[string]bool{}
	for _, id := range all {
		if seen[id] {
			t.Fatalf("duplicate %s across pages", id)
		}
		seen[id] = true
	}
}

func TestPaginationBeyondEnd(t *testing.T) {
	_, ts := newServer(t, Options{Tokens: []string{"tk"}, PageSize: 10})
	var resp RaisingResponse
	if code := get(t, ts.URL+"/angellist/startups/raising?page=99999", "tk", &resp); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if len(resp.Startups) != 0 {
		t.Fatalf("expected empty page, got %d", len(resp.Startups))
	}
}

func TestStartupAndUserEndpoints(t *testing.T) {
	w := testWorld(t)
	_, ts := newServer(t, Options{Tokens: []string{"tk"}})
	src := w.Startups[0]
	var got ecosystem.Startup
	if code := get(t, ts.URL+"/angellist/startups/"+src.ID, "tk", &got); code != http.StatusOK {
		t.Fatalf("startup code %d", code)
	}
	if got.ID != src.ID || got.Name != src.Name {
		t.Fatalf("startup mismatch: %+v", got)
	}
	if code := get(t, ts.URL+"/angellist/startups/zzz", "tk", nil); code != http.StatusNotFound {
		t.Errorf("unknown startup code %d", code)
	}

	srcU := w.Users[0]
	var gotU ecosystem.User
	if code := get(t, ts.URL+"/angellist/users/"+srcU.ID, "tk", &gotU); code != http.StatusOK {
		t.Fatalf("user code %d", code)
	}
	if gotU.ID != srcU.ID || len(gotU.FollowsStartups) != len(srcU.FollowsStartups) {
		t.Fatalf("user mismatch")
	}
	if code := get(t, ts.URL+"/angellist/users/zzz", "tk", nil); code != http.StatusNotFound {
		t.Errorf("unknown user code %d", code)
	}
}

func TestFollowersEndpoint(t *testing.T) {
	w := testWorld(t)
	_, ts := newServer(t, Options{Tokens: []string{"tk"}, PageSize: 7})
	// Find a startup with followers (all have >= 1 by construction).
	src := w.Startups[3]
	var all []string
	page := 1
	for {
		var resp FollowersResponse
		if code := get(t, fmt.Sprintf("%s/angellist/startups/%s/followers?page=%d", ts.URL, src.ID, page), "tk", &resp); code != http.StatusOK {
			t.Fatalf("code %d", code)
		}
		all = append(all, resp.Followers...)
		if page >= resp.LastPage {
			break
		}
		page++
	}
	if len(all) == 0 {
		t.Fatal("no followers returned")
	}
	// Cross-check against the world.
	want := 0
	for _, u := range w.Users {
		for _, sid := range u.FollowsStartups {
			if sid == src.ID {
				want++
			}
		}
	}
	if len(all) != want {
		t.Fatalf("followers = %d, want %d", len(all), want)
	}
	if code := get(t, ts.URL+"/angellist/startups/zzz/followers", "tk", nil); code != http.StatusNotFound {
		t.Errorf("unknown startup followers code %d", code)
	}
}

func TestCrunchBaseEndpoints(t *testing.T) {
	w := testWorld(t)
	_, ts := newServer(t, Options{Tokens: []string{"tk"}})
	var anyURL, anyName string
	for url, p := range w.CrunchBase {
		anyURL, anyName = url, p.Name
		break
	}
	if anyURL == "" {
		t.Skip("world has no CrunchBase profiles")
	}
	var prof ecosystem.CrunchBaseProfile
	if code := get(t, ts.URL+"/crunchbase/organization?url="+urlQuery(anyURL), "tk", &prof); code != http.StatusOK {
		t.Fatalf("organization code %d", code)
	}
	if prof.URL != anyURL {
		t.Fatalf("profile mismatch: %s", prof.URL)
	}
	if code := get(t, ts.URL+"/crunchbase/organization?url=nope", "tk", nil); code != http.StatusNotFound {
		t.Errorf("unknown org code %d", code)
	}
	var search CBSearchResponse
	if code := get(t, ts.URL+"/crunchbase/search?name="+urlQuery(anyName), "tk", &search); code != http.StatusOK {
		t.Fatalf("search code %d", code)
	}
	if len(search.Results) == 0 {
		t.Fatal("search returned nothing")
	}
	if code := get(t, ts.URL+"/crunchbase/search", "tk", nil); code != http.StatusBadRequest {
		t.Errorf("missing name code %d", code)
	}
}

func TestFacebookEndpoint(t *testing.T) {
	w := testWorld(t)
	_, ts := newServer(t, Options{Tokens: []string{"tk"}})
	var anyURL string
	var want *ecosystem.FacebookProfile
	for url, p := range w.Facebook {
		anyURL, want = url, p
		break
	}
	if anyURL == "" {
		t.Skip("no facebook profiles")
	}
	var got ecosystem.FacebookProfile
	if code := get(t, ts.URL+"/facebook/graph?url="+urlQuery(anyURL), "tk", &got); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if got.Likes != want.Likes || got.Name != want.Name {
		t.Fatalf("profile mismatch: %+v vs %+v", got, want)
	}
	if code := get(t, ts.URL+"/facebook/graph?url=nope", "tk", nil); code != http.StatusNotFound {
		t.Errorf("unknown page code %d", code)
	}
}

func TestTwitterEndpointAndUsernameExtraction(t *testing.T) {
	w := testWorld(t)
	_, ts := newServer(t, Options{Tokens: []string{"tk"}})
	var st *ecosystem.Startup
	for _, s := range w.Startups {
		if s.TwitterURL != "" {
			st = s
			break
		}
	}
	if st == nil {
		t.Skip("no twitter startups")
	}
	// The paper extracts the username as the string after the last '/'.
	username := st.TwitterURL[strings.LastIndex(st.TwitterURL, "/")+1:]
	var got ecosystem.TwitterProfile
	if code := get(t, ts.URL+"/twitter/users/show?screen_name="+urlQuery(username), "tk", &got); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if !strings.EqualFold(got.Username, username) {
		t.Fatalf("username mismatch: %s vs %s", got.Username, username)
	}
	if code := get(t, ts.URL+"/twitter/users/show?screen_name=missing", "tk", nil); code != http.StatusNotFound {
		t.Errorf("unknown user code %d", code)
	}
}

func TestTwitterRateLimitPerToken(t *testing.T) {
	w := testWorld(t)
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	_, ts := newServer(t, Options{
		Tokens:        []string{"t1", "t2"},
		TwitterLimit:  5,
		TwitterWindow: time.Minute,
		Clock:         clock,
	})
	var username string
	for _, p := range w.Twitter {
		username = p.Username
		break
	}
	url := ts.URL + "/twitter/users/show?screen_name=" + urlQuery(username)
	for i := 0; i < 5; i++ {
		if code := get(t, url, "t1", nil); code != http.StatusOK {
			t.Fatalf("call %d: code %d", i, code)
		}
	}
	// 6th call on t1 must be limited; t2 unaffected (token rotation!).
	if code, retry := getRetryAfter(t, url, "t1"); code != http.StatusTooManyRequests || retry == "" {
		t.Fatalf("6th call: code %d, Retry-After %q, want 429 with a Retry-After", code, retry)
	}
	if code := get(t, url, "t2", nil); code != http.StatusOK {
		t.Errorf("t2 should not be limited: code %d", code)
	}
	// Window rollover restores t1.
	now = now.Add(61 * time.Second)
	if code := get(t, url, "t1", nil); code != http.StatusOK {
		t.Errorf("after window: code %d", code)
	}
}

// TestTwitterRateLimitStatus: a fresh token has the whole limit, and the
// call past it answers 429 naming the rest of the window.
func TestTwitterRateLimitStatus(t *testing.T) {
	w := testWorld(t)
	now := time.Unix(0, 0)
	_, ts := newServer(t, Options{
		Tokens:        []string{"t1"},
		TwitterLimit:  10,
		TwitterWindow: time.Minute,
		Clock:         func() time.Time { return now },
	})
	var username string
	for _, p := range w.Twitter {
		username = p.Username
		break
	}
	url := ts.URL + "/twitter/users/show?screen_name=" + urlQuery(username)
	for i := 0; i < 10; i++ {
		if code := get(t, url, "t1", nil); code != http.StatusOK {
			t.Fatalf("call %d: code %d", i+1, code)
		}
	}
	if code, retry := getRetryAfter(t, url, "t1"); code != http.StatusTooManyRequests || retry != "61" {
		t.Fatalf("11th call: code %d, Retry-After %q, want 429 and 61", code, retry)
	}
}

// getRetryAfter makes one call with the token and returns its status
// code and Retry-After header.
func getRetryAfter(t *testing.T, url, token string) (int, string) {
	t.Helper()
	req, _ := http.NewRequest("GET", url, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

func TestFailureInjection(t *testing.T) {
	_, ts := newServer(t, Options{Tokens: []string{"tk"}, Faults: &FaultConfig{Seed: 1, Default: FaultProfile{ServerError: 0.5}}})
	var fails, oks int
	for i := 0; i < 200; i++ {
		switch code := get(t, ts.URL+"/angellist/startups/raising", "tk", nil); code {
		case http.StatusOK:
			oks++
		case http.StatusServiceUnavailable:
			fails++
		default:
			t.Fatalf("unexpected code %d", code)
		}
	}
	if fails < 50 || oks < 50 {
		t.Fatalf("failure injection skewed: %d fails, %d oks", fails, oks)
	}
}

func TestCallsCounter(t *testing.T) {
	s, ts := newServer(t, Options{Tokens: []string{"tk"}})
	before := s.Calls()
	for i := 0; i < 5; i++ {
		get(t, ts.URL+"/angellist/startups/raising", "tk", nil)
	}
	if s.Calls()-before != 5 {
		t.Errorf("calls delta = %d", s.Calls()-before)
	}
	// Unauthorized calls do not count.
	get(t, ts.URL+"/angellist/startups/raising", "bad", nil)
	if s.Calls()-before != 5 {
		t.Errorf("unauthorized call counted")
	}
}

func urlQuery(s string) string {
	r := strings.NewReplacer(":", "%3A", "/", "%2F", " ", "%20", "&", "%26", "?", "%3F")
	return r.Replace(s)
}
