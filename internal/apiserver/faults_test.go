package apiserver

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

func TestFaultUniformIsPure(t *testing.T) {
	a := faultUniform(42, "GET", "/x", 7)
	b := faultUniform(42, "GET", "/x", 7)
	if a != b {
		t.Fatalf("same inputs gave %v and %v", a, b)
	}
	if a < 0 || a >= 1 {
		t.Fatalf("draw out of range: %v", a)
	}
	if faultUniform(42, "GET", "/x", 8) == a {
		t.Error("consecutive calls identical")
	}
	if faultUniform(43, "GET", "/x", 7) == a {
		t.Error("different seed identical")
	}
	if faultUniform(42, "GET", "/y", 7) == a {
		t.Error("different path identical")
	}
}

// TestFaultScheduleDeterminism replays the same per-endpoint schedules
// from two injectors even when the endpoints are interleaved differently,
// which is exactly what concurrent crawler workers do.
func TestFaultScheduleDeterminism(t *testing.T) {
	cfg := FaultConfig{
		Seed: 11,
		Default: FaultProfile{
			ServerError: 0.1, RateLimit: 0.05, Slow: 0.05, Truncate: 0.05, Reset: 0.05,
		},
	}
	paths := []string{"/a", "/b", "/c"}
	const perPath = 200

	collect := func(order func(i int) string) map[string][]faultKind {
		fi := newFaultInjector(cfg)
		got := map[string][]faultKind{}
		for i := 0; i < perPath*len(paths); i++ {
			p := order(i)
			got[p] = append(got[p], fi.decide("GET", p))
		}
		return got
	}
	// Round-robin vs. path-at-a-time interleavings.
	roundRobin := collect(func(i int) string { return paths[i%len(paths)] })
	sequential := collect(func(i int) string { return paths[i/perPath] })
	for _, p := range paths {
		if len(roundRobin[p]) != perPath || len(sequential[p]) != perPath {
			t.Fatalf("collection skewed for %s", p)
		}
		for i := range roundRobin[p] {
			if roundRobin[p][i] != sequential[p][i] {
				t.Fatalf("%s call %d: %v vs %v across interleavings", p, i, roundRobin[p][i], sequential[p][i])
			}
		}
	}
	// A different seed must change at least one decision.
	other := FaultConfig{Seed: 12, Default: cfg.Default}
	fi1, fi2 := newFaultInjector(cfg), newFaultInjector(other)
	same := true
	for i := 0; i < perPath; i++ {
		if fi1.decide("GET", "/a") != fi2.decide("GET", "/a") {
			same = false
		}
	}
	if same {
		t.Error("seeds 11 and 12 produced identical schedules")
	}
}

func TestFaultZeroRatesInjectNothing(t *testing.T) {
	fi := newFaultInjector(FaultConfig{Seed: 99})
	for i := 0; i < 1000; i++ {
		if k := fi.decide("GET", "/anything"); k != faultNone {
			t.Fatalf("call %d injected %v at zero rates", i, k)
		}
	}
	if total := fi.Stats().Total(); total != 0 {
		t.Fatalf("stats report %d injected faults", total)
	}
}

func TestFaultBurstLength(t *testing.T) {
	fi := newFaultInjector(FaultConfig{
		Seed:     3,
		Default:  FaultProfile{RateLimit: 0.2},
		BurstLen: 3,
	})
	var kinds []faultKind
	for i := 0; i < 300; i++ {
		kinds = append(kinds, fi.decide("GET", "/p"))
	}
	runs := 0
	for i := 0; i < len(kinds); {
		if kinds[i] != faultRateLimit {
			i++
			continue
		}
		j := i
		for j < len(kinds) && kinds[j] == faultRateLimit {
			j++
		}
		if j-i < 3 && j < len(kinds) {
			t.Fatalf("429 run of length %d at call %d, want >= BurstLen 3", j-i, i)
		}
		runs++
		i = j
	}
	if runs == 0 {
		t.Fatal("no 429 bursts triggered at 20% rate over 300 calls")
	}
}

func TestFaultProfileResolution(t *testing.T) {
	fi := newFaultInjector(FaultConfig{
		Seed:    1,
		Default: FaultProfile{Slow: 1},
		PerPath: map[string]FaultProfile{
			"/twitter/":           {ServerError: 1},
			"/twitter/users/show": {}, // exact match: healthy
		},
	})
	if k := fi.decide("GET", "/twitter/users/show"); k != faultNone {
		t.Fatalf("exact match should win: got %v", k)
	}
	if k := fi.decide("GET", "/twitter/users/lookup"); k != faultServerError {
		t.Fatalf("prefix match should apply: got %v", k)
	}
	if k := fi.decide("GET", "/angellist/users/u1"); k != faultSlow {
		t.Fatalf("default should apply: got %v", k)
	}
}

// TestFaultKindsOverHTTP drives each fault kind end to end through the
// real handler stack.
func TestFaultKindsOverHTTP(t *testing.T) {
	const path = "/angellist/startups/raising"
	force := func(p FaultProfile, cfg FaultConfig) *FaultConfig {
		cfg.PerPath = map[string]FaultProfile{path: p}
		return &cfg
	}
	t.Run("server error", func(t *testing.T) {
		_, ts := newServer(t, Options{Tokens: []string{"tk"}, Faults: force(FaultProfile{ServerError: 1}, FaultConfig{Seed: 1})})
		if code := get(t, ts.URL+path, "tk", nil); code != http.StatusServiceUnavailable {
			t.Fatalf("code %d, want 503", code)
		}
	})
	t.Run("rate limit with Retry-After", func(t *testing.T) {
		s, ts := newServer(t, Options{Tokens: []string{"tk"}, Faults: force(FaultProfile{RateLimit: 1}, FaultConfig{Seed: 1, RetryAfterSecs: 9})})
		resp, err := http.Get(ts.URL + path + "?access_token=tk")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("code %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "9" {
			t.Fatalf("Retry-After = %q, want 9", ra)
		}
		if s.FaultStats().RateLimits == 0 {
			t.Error("rate-limit fault not counted")
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		s, ts := newServer(t, Options{Tokens: []string{"tk"}, Faults: force(FaultProfile{Truncate: 1}, FaultConfig{Seed: 1})})
		resp, err := http.Get(ts.URL + path + "?access_token=tk")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("code %d, want 200", resp.StatusCode)
		}
		if json.Valid(body) {
			t.Fatalf("truncated body still valid JSON: %q", body)
		}
		if s.FaultStats().Truncates == 0 {
			t.Error("truncate fault not counted")
		}
	})
	t.Run("connection reset", func(t *testing.T) {
		_, ts := newServer(t, Options{Tokens: []string{"tk"}, Faults: force(FaultProfile{Reset: 1}, FaultConfig{Seed: 1})})
		if _, err := http.Get(ts.URL + path + "?access_token=tk"); err == nil {
			t.Fatal("expected a transport error from the dropped connection")
		}
	})
	t.Run("slow response", func(t *testing.T) {
		s, ts := newServer(t, Options{Tokens: []string{"tk"}, Faults: force(FaultProfile{Slow: 1}, FaultConfig{Seed: 1, SlowDelay: 30 * time.Millisecond})})
		start := time.Now()
		if code := get(t, ts.URL+path, "tk", nil); code != http.StatusOK {
			t.Fatalf("code %d, want 200 after delay", code)
		}
		if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
			t.Fatalf("response came back in %v, want >= 30ms delay", elapsed)
		}
		if s.FaultStats().Slows == 0 {
			t.Error("slow fault not counted")
		}
	})
	t.Run("healthy endpoints unaffected", func(t *testing.T) {
		s, ts := newServer(t, Options{Tokens: []string{"tk"}, Faults: force(FaultProfile{ServerError: 1}, FaultConfig{Seed: 1})})
		if code := get(t, ts.URL+"/crunchbase/search?name=x", "tk", nil); code != http.StatusOK {
			t.Fatalf("unfaulted endpoint code %d", code)
		}
		if got := s.FaultStats().Total(); got != 0 {
			t.Fatalf("faults leaked onto healthy endpoint: %d", got)
		}
	})
}
