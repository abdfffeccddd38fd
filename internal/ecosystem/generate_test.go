package ecosystem

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// sharedWorld generates one moderate world reused by the read-only tests.
var (
	worldOnce sync.Once
	world     *World
	worldGT   GroundTruth
)

func testWorld(t *testing.T) (*World, GroundTruth) {
	t.Helper()
	worldOnce.Do(func() {
		w, err := Generate(NewConfig(42, 0.02))
		if err != nil {
			panic(err)
		}
		world = w
		worldGT = w.Summarize()
	})
	return world, worldGT
}

func TestConfigValidate(t *testing.T) {
	good := NewConfig(1, 0.01)
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Scale = 1.5 },
		func(c *Config) { c.InvestorFrac = 0.9; c.FounderFrac = 0.2 },
		func(c *Config) { c.BothFrac = 0.2 },
		func(c *Config) { c.FacebookFrac = 0.8; c.TwitterFrac = 0.8; c.BothFrac = 0.1 },
		func(c *Config) { c.SuccessNone = -0.1 },
		func(c *Config) { c.EngagementLift = 2.5 },
		func(c *Config) { c.VideoLift = 0.5 },
		func(c *Config) { c.SingleInvestmentFrac = 1 },
		func(c *Config) { c.MeanInvestments = 0.5 },
		func(c *Config) { c.MaxInvestments = 1 },
		func(c *Config) { c.CommunityCount = 0 },
		func(c *Config) { c.CohesionMin = 0 },
		func(c *Config) { c.CohesionMin = 0.9; c.CohesionMax = 0.5 },
	}
	for i, mutate := range bad {
		c := NewConfig(1, 0.01)
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestScaledCounts(t *testing.T) {
	c := NewConfig(1, 1)
	if c.NumStartups() != PaperStartups || c.NumUsers() != PaperUsers {
		t.Errorf("paper-scale counts wrong: %d, %d", c.NumStartups(), c.NumUsers())
	}
	c = NewConfig(1, 0.01)
	if got := c.NumStartups(); got != 7440 {
		t.Errorf("scale 0.01 startups = %d", got)
	}
	if got := c.NumCommunities(); got < 8 || got > 12 {
		t.Errorf("scale 0.01 communities = %d, want ≈9.6", got)
	}
}

// TestScaledCountFloors: at vanishing scale every derived count clamps
// to its structural minimum — one raising startup, two communities, one
// entity — instead of rounding to zero and degenerating the world.
func TestScaledCountFloors(t *testing.T) {
	c := NewConfig(1, 1e-9)
	if got := c.NumStartups(); got != 1 {
		t.Errorf("NumStartups at ~0 scale = %d, want floor 1", got)
	}
	if got := c.numRaising(); got != 1 {
		t.Errorf("numRaising at ~0 scale = %d, want floor 1", got)
	}
	if got := c.NumCommunities(); got != 2 {
		t.Errorf("NumCommunities at ~0 scale = %d, want floor 2", got)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	c := NewConfig(1, 0)
	if _, err := Generate(c); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDeterminism(t *testing.T) {
	c := NewConfig(7, 0.005)
	w1, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := w1.Summarize(), w2.Summarize()
	if g1 != g2 {
		t.Fatalf("summaries differ:\n%+v\n%+v", g1, g2)
	}
	// Spot-check deep equality.
	for i := range w1.Startups {
		a, b := w1.Startups[i], w2.Startups[i]
		if a.Name != b.Name || a.Raising != b.Raising || a.FacebookURL != b.FacebookURL ||
			a.TwitterURL != b.TwitterURL || a.CrunchBaseURL != b.CrunchBaseURL ||
			a.HasDemoVideo != b.HasDemoVideo {
			t.Fatalf("startup %d differs", i)
		}
	}
	for i := 0; i < len(w1.Users); i += 97 {
		a, b := w1.Users[i], w2.Users[i]
		if a.Name != b.Name || a.Role != b.Role || len(a.Investments) != len(b.Investments) {
			t.Fatalf("user %d differs", i)
		}
	}
	// Different seed differs.
	w3, _ := Generate(NewConfig(8, 0.005))
	if w3.Summarize() == g1 {
		t.Fatal("different seeds produced identical worlds")
	}
}

func TestRoleFractions(t *testing.T) {
	_, gt := testWorld(t)
	tot := float64(gt.Users)
	within := func(got, want, tol float64, name string) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s fraction = %.4f, want %.4f ± %.4f", name, got, want, tol)
		}
	}
	within(float64(gt.Investors)/tot, 0.043, 0.006, "investor")
	within(float64(gt.Founders)/tot, 0.183, 0.012, "founder")
	within(float64(gt.Employees)/tot, 0.442, 0.015, "employee")
}

func TestSocialAttachmentFractions(t *testing.T) {
	_, gt := testWorld(t)
	tot := float64(gt.Startups)
	within := func(got, want, tol float64, name string) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s fraction = %.4f, want %.4f ± %.4f", name, got, want, tol)
		}
	}
	within(float64(gt.WithFacebook)/tot, 0.0507, 0.006, "facebook")
	within(float64(gt.WithTwitter)/tot, 0.0948, 0.008, "twitter")
	within(float64(gt.WithBoth)/tot, 0.0437, 0.006, "both")
	within(float64(gt.WithNeither)/tot, 0.8981, 0.01, "none")
	within(float64(gt.WithVideo)/tot, 0.0488, 0.012, "video")
}

// successRate returns the fraction of startups matching pred that raised
// funding, plus the match count — the quantity tabulated in Figure 6.
func successRate(w *World, pred func(*Startup) bool) (rate float64, matched int) {
	var succ int
	for i, s := range w.Startups {
		if pred(s) {
			matched++
			if w.Successful[i] {
				succ++
			}
		}
	}
	if matched == 0 {
		return 0, 0
	}
	return float64(succ) / float64(matched), matched
}

// TestSuccessGradient asserts the Figure 6 shape: the ordering of success
// rates across categories and the approximate lift factors.
func TestSuccessGradient(t *testing.T) {
	w, _ := testWorld(t)
	none, _ := successRate(w, func(s *Startup) bool { return s.FacebookURL == "" && s.TwitterURL == "" })
	fb, _ := successRate(w, func(s *Startup) bool { return s.FacebookURL != "" })
	tw, _ := successRate(w, func(s *Startup) bool { return s.TwitterURL != "" })
	both, _ := successRate(w, func(s *Startup) bool { return s.FacebookURL != "" && s.TwitterURL != "" })
	video, _ := successRate(w, func(s *Startup) bool { return s.HasDemoVideo })
	noVideo, _ := successRate(w, func(s *Startup) bool { return !s.HasDemoVideo })

	if none > 0.01 {
		t.Errorf("no-social success = %.4f, want ≈0.004", none)
	}
	// The paper's headline: social presence gives a ≈30X (FB) / 26X (TW)
	// boost. Assert at least 10X to be robust to sampling noise.
	if fb < 10*none {
		t.Errorf("facebook lift = %.1fX, want >10X (fb=%.4f none=%.4f)", fb/none, fb, none)
	}
	if tw < 10*none {
		t.Errorf("twitter lift = %.1fX, want >10X", tw/none)
	}
	// Both is comparable to or better than either alone (allowing sampling
	// noise at test scale), but with diminishing returns (less than
	// additive) — the paper's observation about multiple outlets.
	if both < 0.85*fb || both < 0.85*tw {
		t.Errorf("both (%.4f) should be ≈>= fb (%.4f) and tw (%.4f)", both, fb, tw)
	}
	if both > fb+tw {
		t.Errorf("both (%.4f) should show diminishing returns vs %.4f", both, fb+tw)
	}
	// Demo video: paper reports >=11.5X; assert >5X.
	if video < 5*noVideo {
		t.Errorf("video lift = %.1fX, want >5X", video/noVideo)
	}
}

// TestEngagementBoost asserts that above-median engagement raises success
// within the social categories (Figure 6 rows 7-11).
func TestEngagementBoost(t *testing.T) {
	w, _ := testWorld(t)
	cfg := w.Cfg
	fbAll, _ := successRate(w, func(s *Startup) bool { return s.FacebookURL != "" })
	fbHigh, n := successRate(w, func(s *Startup) bool {
		p := w.Facebook[s.FacebookURL]
		return p != nil && p.Likes > cfg.MedianLikes
	})
	if n == 0 {
		t.Fatal("no high-engagement facebook companies")
	}
	if fbHigh <= fbAll {
		t.Errorf("FB >%d likes success %.4f not above category %.4f", cfg.MedianLikes, fbHigh, fbAll)
	}
	twAll, _ := successRate(w, func(s *Startup) bool { return s.TwitterURL != "" })
	twHigh, _ := successRate(w, func(s *Startup) bool {
		p := w.Twitter[s.TwitterURL]
		return p != nil && p.FollowersCount > cfg.MedianFollowers
	})
	if twHigh <= twAll {
		t.Errorf("TW >%d followers success %.4f not above category %.4f", cfg.MedianFollowers, twHigh, twAll)
	}
}

func TestEngagementMedians(t *testing.T) {
	w, _ := testWorld(t)
	var likes []float64
	for _, p := range w.Facebook {
		likes = append(likes, float64(p.Likes))
	}
	med := medianOf(likes)
	// Lognormal with median 652: the sample median should be in a loose
	// band around it.
	if med < 400 || med > 1000 {
		t.Errorf("median likes = %.0f, want ≈652", med)
	}
	var tweets, followers []float64
	for _, p := range w.Twitter {
		tweets = append(tweets, float64(p.StatusesCount))
		followers = append(followers, float64(p.FollowersCount))
	}
	if m := medianOf(tweets); m < 200 || m > 550 {
		t.Errorf("median tweets = %.0f, want ≈343", m)
	}
	if m := medianOf(followers); m < 200 || m > 550 {
		t.Errorf("median followers = %.0f, want ≈339", m)
	}
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestInvestmentDistribution(t *testing.T) {
	_, gt := testWorld(t)
	if gt.MedianInvestments != 1 {
		t.Errorf("median investments = %g, paper reports 1", gt.MedianInvestments)
	}
	if gt.MeanInvestments < 2.2 || gt.MeanInvestments > 4.8 {
		t.Errorf("mean investments = %.2f, want ≈3.3 (loose band for heavy tail)", gt.MeanInvestments)
	}
	if gt.MaxInvestments < 30 {
		t.Errorf("max investments = %d, want a long tail", gt.MaxInvestments)
	}
	if gt.MeanInvestorsPerCo < 1.8 || gt.MeanInvestorsPerCo > 3.8 {
		t.Errorf("investors per company = %.2f, paper reports 2.6", gt.MeanInvestorsPerCo)
	}
	// Nearly all investors have invested (InvestingInvestorFrac = 0.992).
	frac := float64(gt.InvestingInvestors) / float64(gt.Investors)
	if frac < 0.97 {
		t.Errorf("investing fraction = %.3f", frac)
	}
	// Invested companies are a small share of all companies (paper: 8%).
	share := float64(gt.InvestedCompanies) / float64(gt.Startups)
	if share < 0.03 || share > 0.15 {
		t.Errorf("invested company share = %.3f, paper ≈0.08", share)
	}
}

func TestFollowVolumes(t *testing.T) {
	_, gt := testWorld(t)
	if gt.MeanFollowsInvestor < 150 || gt.MeanFollowsInvestor > 350 {
		t.Errorf("investor mean follows = %.0f, paper reports 247", gt.MeanFollowsInvestor)
	}
}

func TestCommunityStructure(t *testing.T) {
	w, _ := testWorld(t)
	if len(w.Communities) != w.Cfg.NumCommunities() {
		t.Fatalf("communities = %d, want %d", len(w.Communities), w.Cfg.NumCommunities())
	}
	for i, c := range w.Communities {
		if c.Cohesion <= 0 || c.Cohesion > 1 {
			t.Errorf("community %d cohesion %g", i, c.Cohesion)
		}
		if i > 0 && c.Cohesion >= w.Communities[i-1].Cohesion {
			t.Errorf("cohesion not strictly descending at %d", i)
		}
		if len(c.Members) < 3 {
			t.Errorf("community %d too small: %d", i, len(c.Members))
		}
		if len(c.Portfolio) < 4 {
			t.Errorf("community %d portfolio too small: %d", i, len(c.Portfolio))
		}
		for _, m := range c.Members {
			if w.Users[m].Role != RoleInvestor {
				t.Errorf("community %d has non-investor member", i)
			}
		}
	}
	// Strong communities are smaller than weak ones (close-knit).
	first, last := w.Communities[0], w.Communities[len(w.Communities)-1]
	if len(first.Members) >= len(last.Members) {
		t.Errorf("strongest community (%d members) should be smaller than weakest (%d)",
			len(first.Members), len(last.Members))
	}
}

// TestHerdBehaviour: members of the strongest community must share far
// more investments pairwise than random investor pairs.
func TestHerdBehaviour(t *testing.T) {
	w, _ := testWorld(t)
	strongest := w.Communities[0]
	shared := func(a, b int32) int {
		seen := map[string]bool{}
		for _, id := range w.Users[a].Investments {
			seen[id] = true
		}
		n := 0
		for _, id := range w.Users[b].Investments {
			if seen[id] {
				n++
			}
		}
		return n
	}
	var sum, pairs float64
	for i := 0; i < len(strongest.Members); i++ {
		for j := i + 1; j < len(strongest.Members); j++ {
			sum += float64(shared(strongest.Members[i], strongest.Members[j]))
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no pairs in strongest community")
	}
	avgStrong := sum / pairs
	if avgStrong < 0.8 {
		t.Errorf("strongest community avg shared = %.2f, want ≈2 (paper: 2.1)", avgStrong)
	}
	// Weakest community should share much less.
	weakest := w.Communities[len(w.Communities)-1]
	sum, pairs = 0, 0
	for i := 0; i < len(weakest.Members) && i < 40; i++ {
		for j := i + 1; j < len(weakest.Members) && j < 40; j++ {
			sum += float64(shared(weakest.Members[i], weakest.Members[j]))
			pairs++
		}
	}
	avgWeak := sum / pairs
	if avgWeak > avgStrong/2 {
		t.Errorf("weak community shared %.3f not well below strong %.3f", avgWeak, avgStrong)
	}
}

// TestCrawlBackbone verifies the reachability guarantees genFollows makes:
// every user follows at least one raising startup and every startup has at
// least one follower, so a BFS from the raising listing reaches everything.
func TestCrawlBackbone(t *testing.T) {
	w, _ := testWorld(t)
	raising := map[string]bool{}
	for _, s := range w.Startups {
		if s.Raising {
			raising[s.ID] = true
		}
	}
	if len(raising) == 0 {
		t.Fatal("no raising startups")
	}
	followed := map[string]bool{}
	for _, u := range w.Users {
		hasRaising := false
		for _, id := range u.FollowsStartups {
			followed[id] = true
			if raising[id] {
				hasRaising = true
			}
		}
		if !hasRaising {
			t.Fatalf("user %s follows no raising startup", u.ID)
		}
	}
	for _, s := range w.Startups {
		if !followed[s.ID] {
			t.Fatalf("startup %s has no follower", s.ID)
		}
	}
}

func TestCrunchBaseConsistency(t *testing.T) {
	w, _ := testWorld(t)
	linked := 0
	for i, s := range w.Startups {
		if w.Successful[i] {
			// Every successful company has a CB profile with rounds,
			// reachable either by direct link or by name.
			var p *CrunchBaseProfile
			if s.CrunchBaseURL != "" {
				p = w.CrunchBase[s.CrunchBaseURL]
				linked++
			} else {
				for _, cand := range w.CrunchBaseByName(s.Name) {
					if cand.ALLink == "https://angel.co/"+s.ID {
						p = cand
					}
				}
			}
			if p == nil {
				t.Fatalf("successful startup %s has no CrunchBase profile", s.ID)
			}
			if len(p.Rounds) == 0 {
				t.Fatalf("successful startup %s has no rounds", s.ID)
			}
			for _, r := range p.Rounds {
				if r.AmountUSD <= 0 || r.NumInvestors <= 0 {
					t.Fatalf("invalid round %+v", r)
				}
			}
		}
	}
	gt := w.Summarize()
	fracLinked := float64(linked) / float64(gt.Successful)
	if fracLinked < 0.6 || fracLinked > 0.8 {
		t.Errorf("CB link fraction = %.2f, want ≈0.7", fracLinked)
	}
}

func TestAmbiguousNamesExist(t *testing.T) {
	w, _ := testWorld(t)
	dupes := 0
	for _, ps := range w.cbByName {
		if len(ps) > 1 {
			dupes++
		}
	}
	if dupes == 0 {
		t.Error("expected some ambiguous CrunchBase names to exercise the search path")
	}
}

func TestWorldLookups(t *testing.T) {
	w, _ := testWorld(t)
	s := w.Startups[10]
	if got := w.StartupByID(s.ID); got != s {
		t.Error("StartupByID failed")
	}
	if w.StartupByID("nope") != nil {
		t.Error("unknown startup should be nil")
	}
	u := w.Users[10]
	if got := w.UserByID(u.ID); got != u {
		t.Error("UserByID failed")
	}
	if w.UserByID("nope") != nil {
		t.Error("unknown user should be nil")
	}
	if len(w.CrunchBaseByName("definitely-not-a-company")) != 0 {
		t.Error("unknown CB name should return empty")
	}
}

func TestRaisingListing(t *testing.T) {
	w, _ := testWorld(t)
	n := 0
	for _, s := range w.Startups {
		if s.Raising {
			n++
		}
	}
	if n != w.Cfg.numRaising() {
		t.Errorf("raising = %d, want %d", n, w.Cfg.numRaising())
	}
}

func TestSlugifyAndNormalize(t *testing.T) {
	// The slug as it was first defined: lowercase the whole name, then
	// keep letters and digits and turn separators into '-'.
	slugRef := func(name string) string {
		var b strings.Builder
		for _, r := range strings.ToLower(name) {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
				b.WriteRune(r)
			case r == ' ' || r == '-' || r == '_':
				b.WriteByte('-')
			}
		}
		return b.String()
	}
	for name, want := range map[string]string{"Zen Labs AI": "zen-labs-ai", "Weird!!Name": "weirdname"} {
		if got := string(appendSlug(nil, name)); got != want {
			t.Errorf("appendSlug(%q) = %q, want %q", name, got, want)
		}
	}
	if normalizeName("  FooBar ") != "foobar" {
		t.Errorf("normalizeName = %q", normalizeName("  FooBar "))
	}
	for _, name := range []string{"", "  FooBar ", "Zen Labs AI", "A_b-C d", "\tX\n", "\u212aelvin", "\u0130stanbul", "Caf\u00c9 HQ", "bad\xffutf8", " \u00a0Nbsp\u00a0 ", "\u0085X"} {
		if got, want := string(appendSlug([]byte("x"), name)), "x"+slugRef(name); got != want {
			t.Errorf("appendSlug(%q) = %q, want %q", name, got, want)
		}
		if got, want := string(appendNormalized([]byte("x"), name)), "x"+normalizeName(name); got != want {
			t.Errorf("appendNormalized(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestSyndicates(t *testing.T) {
	w, gt := testWorld(t)
	if len(w.Syndicates) == 0 {
		t.Fatal("no syndicates planted")
	}
	// Backers must meaningfully mirror their lead's portfolio.
	var overlapFrac []float64
	for _, s := range w.Syndicates {
		lead := map[string]bool{}
		for _, id := range w.Users[s.Lead].Investments {
			lead[id] = true
		}
		if len(lead) == 0 {
			t.Fatalf("syndicate lead %d has no investments", s.Lead)
		}
		for _, b := range s.Backers {
			inv := w.Users[b].Investments
			if len(inv) == 0 {
				continue
			}
			shared := 0
			for _, id := range inv {
				if lead[id] {
					shared++
				}
			}
			overlapFrac = append(overlapFrac, float64(shared)/float64(len(inv)))
		}
	}
	if len(overlapFrac) == 0 {
		t.Fatal("no backers with investments")
	}
	var mean float64
	for _, f := range overlapFrac {
		mean += f
	}
	mean /= float64(len(overlapFrac))
	// With SyndicateMirror = 0.5, roughly half of a backer's draws land
	// in the lead's portfolio.
	if mean < 0.25 {
		t.Errorf("backer overlap fraction = %.2f, want >= 0.25", mean)
	}
	// Each backer belongs to at most one syndicate.
	seen := map[int32]bool{}
	for _, s := range w.Syndicates {
		for _, b := range s.Backers {
			if seen[b] {
				t.Fatal("backer in two syndicates")
			}
			seen[b] = true
		}
	}
	// Mirroring spends existing draws, so Figure 3 stays calibrated
	// (checked independently by TestInvestmentDistribution; assert here
	// that the overall mean did not explode).
	if gt.MeanInvestments > 5 {
		t.Errorf("mean investments = %.2f after syndicates", gt.MeanInvestments)
	}
}
