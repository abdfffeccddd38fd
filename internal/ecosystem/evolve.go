package ecosystem

import (
	"math/rand"
	"sort"

	"crowdscope/internal/stats"
)

// sortedKeys returns a map's keys in ascending order, so evolution walks
// profiles in a run-independent order.
func sortedKeys[T any](m map[string]*T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Evolve advances the world by one simulated day, for the longitudinal
// study the paper proposes in Section 7: companies start and close
// fundraising campaigns, social engagement counters move, and investors
// make new (community-influenced) investments. Evolution is deterministic
// in the world's seed and current day.
func (w *World) Evolve() {
	w.Day++
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ int64(w.Day)*0x9e3779b9))

	// Social engagement drift: active companies gain likes, tweets and
	// followers; a small multiplicative daily drift with noise. The
	// profile maps are walked in sorted key order — ranging the maps
	// directly would hand each profile a different slice of the RNG
	// stream on every run, breaking the determinism contract above.
	for _, url := range sortedKeys(w.Facebook) {
		p := w.Facebook[url]
		growth := 1 + 0.01*rng.Float64()
		p.Likes = int(float64(p.Likes)*growth) + rng.Intn(3)
		if rng.Float64() < 0.3 {
			p.RecentPosts++
		}
	}
	day := baseDate.AddDate(0, 0, w.Day)
	for _, url := range sortedKeys(w.Twitter) {
		p := w.Twitter[url]
		p.FollowersCount = int(float64(p.FollowersCount)*(1+0.008*rng.Float64())) + rng.Intn(3)
		if rng.Float64() < 0.5 {
			p.StatusesCount++
			p.LatestStatusAt = day
		}
	}

	// Campaign churn: some raising companies close (successfully with a
	// probability tilted by social presence), some quiet companies launch.
	for i, s := range w.Startups {
		if s.Raising {
			if rng.Float64() < 0.02 { // campaign ends
				s.Raising = false
				closeP := 0.1
				if s.FacebookURL != "" || s.TwitterURL != "" {
					closeP = 0.5
				}
				if !w.Successful[i] && rng.Float64() < closeP {
					w.markFunded(i, rng)
				}
			}
		} else if rng.Float64() < 0.0002 {
			s.Raising = true
		}
	}

	// New investments: a few investors make one more community-routed
	// draw each day.
	var investors []int32
	for i, u := range w.Users {
		if u.Role == RoleInvestor && len(u.Investments) > 0 {
			investors = append(investors, int32(i))
		}
	}
	memberOf := make(map[int32][]*Community)
	for _, c := range w.Communities {
		for _, m := range c.Members {
			memberOf[m] = append(memberOf[m], c)
		}
	}
	nNew := len(investors) / 200
	if nNew < 1 {
		nNew = 1
	}
	for k := 0; k < nNew && len(investors) > 0; k++ {
		inv := investors[rng.Intn(len(investors))]
		u := w.Users[inv]
		var target int32 = -1
		if comms := memberOf[inv]; len(comms) > 0 {
			c := comms[rng.Intn(len(comms))]
			if rng.Float64() < c.Cohesion {
				target = c.Portfolio[rng.Intn(len(c.Portfolio))]
			}
		}
		if target < 0 {
			target = int32(rng.Intn(len(w.Startups)))
		}
		id := w.Startups[target].ID
		dup := false
		for _, existing := range u.Investments {
			if existing == id {
				dup = true
				break
			}
		}
		if !dup {
			u.Investments = append(u.Investments, id)
			u.FollowsStartups = append(u.FollowsStartups, id)
		}
	}
	w.reindex()
}

// markFunded upgrades a startup to successful, creating or extending its
// CrunchBase profile with a round dated today.
func (w *World) markFunded(idx int, rng *rand.Rand) {
	w.Successful[idx] = true
	s := w.Startups[idx]
	url := s.CrunchBaseURL
	if url == "" {
		var buf []byte
		url = linkURL(&buf, "https://www.crunchbase.com/organization/", appendSlug(nil, s.Name), '-', idx)
		if w.CrunchBase[url] == nil {
			w.CrunchBase[url] = &CrunchBaseProfile{
				URL:    url,
				Name:   s.Name,
				ALLink: "https://angel.co/" + s.ID,
			}
		}
		s.CrunchBaseURL = url
	}
	p := w.CrunchBase[url]
	p.Rounds = append(p.Rounds, FundingRound{
		Date:         baseDate.AddDate(0, 0, w.Day),
		AmountUSD:    int64(stats.LogNormal(rng, 13.5, 0.8)),
		NumInvestors: 2 + rng.Intn(18),
		Series:       "Seed",
	})
}
