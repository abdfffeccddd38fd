package ecosystem

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"crowdscope/internal/stats"
)

// plantCommunitiesAndInvestments draws each investor's investment count
// from the calibrated long-tailed mixture of Figure 3, plants overlapping
// investor communities with a cohesion gradient, and then routes
// investment draws either into community portfolios (herd behaviour) or
// the global market (independent behaviour).
func plantCommunitiesAndInvestments(w *World, rng *rand.Rand) error {
	cfg := w.Cfg

	// 1. Who invests, and how much.
	var investors []int32
	for i, u := range w.Users {
		if u.Role == RoleInvestor {
			investors = append(investors, int32(i))
		}
	}
	maxInv := cfg.MaxInvestments
	if m := len(w.Startups) / 3; m < maxInv {
		maxInv = m
	}
	if maxInv < 2 {
		maxInv = 2
	}
	// Mixture: P(exactly 1) = SingleInvestmentFrac, else 1 + tail where
	// the tail is a bounded Zipf tuned so the overall mean matches.
	tailMean := (cfg.MeanInvestments - cfg.SingleInvestmentFrac) / (1 - cfg.SingleInvestmentFrac)
	tail, err := zipfForMean(tailMean-1, maxInv-1)
	if err != nil {
		return err
	}
	draws := make(map[int32]int, len(investors))
	for _, inv := range investors {
		if rng.Float64() >= cfg.InvestingInvestorFrac {
			continue // never invested
		}
		d := 1
		if rng.Float64() >= cfg.SingleInvestmentFrac {
			d = 1 + tail.Sample(rng)
		}
		draws[inv] = d
	}

	// 2. Plant communities over investors with enough draws.
	var eligible []int32
	for _, inv := range investors {
		if draws[inv] >= cfg.MinCommunityDeg {
			eligible = append(eligible, inv)
		}
	}
	nComm := cfg.NumCommunities()
	w.Communities = make([]*Community, 0, nComm)
	memberships := make(map[int32][]int) // investor -> community ids
	if len(eligible) > 0 {
		meanSize := cfg.CommunityMeanSz * math.Sqrt(cfg.Scale)
		if meanSize < 4 {
			meanSize = 4
		}
		// Cohesion descends geometrically from max to min; sizes grow as
		// cohesion falls (close-knit communities are small), normalized so
		// the average size is meanSize.
		cohesions := make([]float64, nComm)
		rawSizes := make([]float64, nComm)
		var sizeSum float64
		for c := 0; c < nComm; c++ {
			frac := 0.0
			if nComm > 1 {
				frac = float64(c) / float64(nComm-1)
			}
			cohesions[c] = cfg.CohesionMax * math.Pow(cfg.CohesionMin/cfg.CohesionMax, frac)
			rawSizes[c] = math.Pow(cfg.CohesionMax/cohesions[c], 0.9)
			sizeSum += rawSizes[c]
		}
		// First assign every community's members, so each investor's full
		// membership list (and hence its routing dilution) is known before
		// portfolios are sized.
		for c := 0; c < nComm; c++ {
			size := int(math.Round(rawSizes[c] / sizeSum * meanSize * float64(nComm)))
			if size < 3 {
				size = 3
			}
			if size > len(eligible) {
				size = len(eligible)
			}
			comm := &Community{ID: c, Cohesion: cohesions[c]}
			for _, ei := range stats.ReservoirSample(rng, len(eligible), size) {
				inv := eligible[ei]
				comm.Members = append(comm.Members, inv)
				memberships[inv] = append(memberships[inv], c)
			}
			w.Communities = append(w.Communities, comm)
		}
		// Portfolio sizing targets an average pairwise shared-investment
		// size of ≈ θ_c * PortfolioPerDraw (the paper's strongest
		// community scores 2.1): with each member expected to place
		// eff_m = d_m * θ_c² / Σ_{c'∈comms(m)} θ_{c'} draws into the
		// portfolio (cohesion-weighted community choice then a θ_c
		// acceptance), a pair shares ≈ eff² / P, so P = eff² / target.
		// Draw counts are trimmed so a single whale cannot blow P up.
		for c := 0; c < nComm; c++ {
			comm := w.Communities[c]
			var effSum float64
			for _, m := range comm.Members {
				d := float64(draws[m])
				if d > 25 {
					d = 25
				}
				var cohSum float64
				for _, ci := range memberships[m] {
					cohSum += cohesions[ci]
				}
				if cohSum > 0 {
					effSum += d * cohesions[c] * cohesions[c] / cohSum
				}
			}
			eff := effSum / float64(len(comm.Members))
			target := cohesions[c] * cfg.PortfolioPerDraw
			pSize := int(math.Round(eff * eff / target))
			if pSize < 4 {
				pSize = 4
			}
			if cap := 3 * len(comm.Members); pSize > cap {
				pSize = cap
			}
			if pSize > len(w.Startups) {
				pSize = len(w.Startups)
			}
			for _, si := range stats.ReservoirSample(rng, len(w.Startups), pSize) {
				comm.Portfolio = append(comm.Portfolio, int32(si))
			}
		}
	}

	// 2.5 Syndicates: whales lead, backers mirror. Backers spend their
	// existing draw budget on mirroring, so totals are unchanged; leads
	// must route before their backers, handled by a two-pass order below.
	backerOf := map[int32]int32{} // backer -> lead
	if cfg.SyndicateFrac > 0 {
		var whales []int32
		for _, inv := range investors {
			if draws[inv] >= 8 {
				whales = append(whales, inv)
			}
		}
		nSynd := int(math.Round(cfg.SyndicateFrac * float64(len(draws))))
		if nSynd > len(whales) {
			nSynd = len(whales)
		}
		leadSet := map[int32]bool{}
		for _, wi := range stats.ReservoirSample(rng, len(whales), nSynd) {
			leadSet[whales[wi]] = true
		}
		var pool []int32 // potential backers: investing non-leads
		for _, inv := range investors {
			if draws[inv] > 0 && !leadSet[inv] {
				pool = append(pool, inv)
			}
		}
		// Iterate leads in sorted order: ranging over the map would
		// consume rng draws in map-iteration order and make the world
		// nondeterministic for a fixed seed.
		leads := make([]int32, 0, len(leadSet))
		for lead := range leadSet {
			leads = append(leads, lead)
		}
		sort.Slice(leads, func(i, j int) bool { return leads[i] < leads[j] })
		for _, lead := range leads {
			nb := 2 + rng.Intn(2*cfg.SyndicateBackers)
			synd := &Syndicate{Lead: lead}
			for _, pi := range stats.ReservoirSample(rng, len(pool), nb) {
				b := pool[pi]
				if _, taken := backerOf[b]; taken {
					continue
				}
				backerOf[b] = lead
				synd.Backers = append(synd.Backers, b)
			}
			if len(synd.Backers) > 0 {
				w.Syndicates = append(w.Syndicates, synd)
			}
		}
	}

	// 3. Route investment draws. Global draws mix preferential attachment
	// (rich get richer) with a success-weighted uniform pick.
	weights := make([]float64, len(w.Startups))
	for i := range weights {
		weights[i] = 1
		if w.Successful[i] {
			weights[i] = 10
		}
	}
	alias, err := stats.NewAlias(weights)
	if err != nil {
		return err
	}
	var balls []int32 // one entry per investment edge, for preferential picks
	invested := make(map[int32]struct{}, 8)
	// Pass 1 routes non-backers (including syndicate leads); pass 2
	// routes backers, who can then mirror their lead's realized picks.
	ordered := make([]int32, 0, len(investors))
	for _, inv := range investors {
		if _, isBacker := backerOf[inv]; !isBacker {
			ordered = append(ordered, inv)
		}
	}
	for _, inv := range investors {
		if _, isBacker := backerOf[inv]; isBacker {
			ordered = append(ordered, inv)
		}
	}
	for _, inv := range ordered {
		d := draws[inv]
		if d == 0 {
			continue
		}
		clear(invested)
		comms := memberships[inv]
		var leadPicks []string
		if lead, isBacker := backerOf[inv]; isBacker {
			leadPicks = w.Users[lead].Investments
		}
		// Members of several communities invest preferentially through
		// their most cohesive affiliation, so close-knit communities are
		// not diluted by overlapping membership.
		var cohSum float64
		for _, ci := range comms {
			cohSum += w.Communities[ci].Cohesion
		}
		u := w.Users[inv]
		for k := 0; k < d; k++ {
			// Retry collisions so the realized count matches the drawn
			// target and Figure 3's mean survives. Community picks that
			// collide (the portfolio is small by design) fall through to
			// the global market on later attempts.
			for attempt := 0; attempt < 8; attempt++ {
				var target int32 = -1
				if len(leadPicks) > 0 && attempt < 2 && rng.Float64() < cfg.SyndicateMirror {
					idx := startupIndex(leadPicks[rng.Intn(len(leadPicks))])
					if _, dup := invested[idx]; !dup {
						target = idx
					}
				}
				if target < 0 && len(comms) > 0 && attempt < 2 {
					pick := rng.Float64() * cohSum
					c := w.Communities[comms[0]]
					for _, ci := range comms {
						pick -= w.Communities[ci].Cohesion
						if pick <= 0 {
							c = w.Communities[ci]
							break
						}
					}
					if rng.Float64() < c.Cohesion {
						target = c.Portfolio[rng.Intn(len(c.Portfolio))]
						if _, dup := invested[target]; dup {
							target = -1
						}
					}
				}
				if target < 0 {
					// Global market pick: preferential attachment mixed
					// with success-weighted uniform.
					if len(balls) > 0 && rng.Float64() < 0.63 {
						target = balls[rng.Intn(len(balls))]
					} else {
						target = int32(alias.Sample(rng))
					}
				}
				if _, dup := invested[target]; dup {
					continue
				}
				invested[target] = struct{}{}
				u.Investments = append(u.Investments, w.Startups[target].ID)
				balls = append(balls, target)
				break
			}
		}
	}
	return nil
}

// zipfForMean binary-searches the bounded-Zipf exponent so the
// distribution over [1, max] has (approximately) the requested mean.
func zipfForMean(mean float64, max int) (*stats.BoundedZipf, error) {
	if max < 1 {
		max = 1
	}
	lo, hi := 1.01, 6.0
	var best *stats.BoundedZipf
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		z, err := stats.NewBoundedZipf(mid, max)
		if err != nil {
			return nil, err
		}
		best = z
		if z.Mean() > mean {
			lo = mid // heavier tail than wanted -> increase exponent
		} else {
			hi = mid
		}
	}
	return best, nil
}

// genFollows builds the follow graph. Two backbone passes guarantee the
// breadth-first crawl can reach everything from the currently-raising
// listing: every user follows at least one raising startup (so all users
// are one hop from a seed), and every startup has at least one follower
// (so all startups are two hops away). The remaining edges are random,
// with volumes matching the paper (investors follow ≈247 companies on
// average).
//
// Every edge is an index until the emitter needs it: the passes draw
// into int32 slices, and each user's follows are collected in two
// reused scratch lists that the emitter turns into IDs (the in-memory
// world) or straight into bytes (the store).
//
// The volume pass is the last user-mutating phase, so each user is final
// — and emitted — the moment its iteration completes. Nothing reads an
// emitted user again, so a non-retaining emitter has it dropped, which
// is what keeps streamed generation from holding all ~33M follow edges.
func genFollows(w *World, rng *rand.Rand, em emitter) error {
	cfg := w.Cfg
	nS, nU := len(w.Startups), len(w.Users)
	var raising []int32
	for i, s := range w.Startups {
		if s.Raising {
			raising = append(raising, int32(i))
		}
	}
	// Pass 1: every user follows one raising startup.
	first := make([]int32, nU)
	for ui := range first {
		first[ui] = raising[rng.Intn(len(raising))]
	}
	// Pass 2: every startup gains one follower. A stable counting sort
	// by follower lists user ui's gains, in startup order, as
	// gained[start[ui]:start[ui+1]].
	follower := make([]int32, nS)
	start := make([]int32, nU+1)
	for si := range follower {
		ui := int32(rng.Intn(nU))
		follower[si] = ui
		start[ui+1]++
	}
	for ui := 0; ui < nU; ui++ {
		start[ui+1] += start[ui]
	}
	gained := make([]int32, nS)
	next := slices.Clone(start[:nU])
	for si, ui := range follower {
		gained[next[ui]] = int32(si)
		next[ui]++
	}
	// Pass 3: volume. Lognormal counts with the configured means. The
	// dedupe sets are keyed by the drawn index: an entry of ui+1 means
	// user ui follows it, so nothing is cleared.
	seen := make([]int32, nS)
	seenU := make([]int32, nU)
	var follows, followsUsers []int32
	for ui, u := range w.Users {
		mark := int32(ui + 1)
		mean := cfg.FollowsPerNonInvestor
		if u.Role == RoleInvestor {
			mean = cfg.FollowsPerInvestor
		}
		// Lognormal with sigma 1.0 has mean exp(mu+0.5); solve mu.
		mu := math.Log(mean) - 0.5
		n := int(stats.LogNormal(rng, mu, 1.0))
		if n > nS/2 {
			n = nS / 2
		}
		follows = append(follows[:0], first[ui])
		follows = append(follows, gained[start[ui]:start[ui+1]]...)
		for _, si := range follows {
			seen[si] = mark
		}
		// Investors preferentially follow what they invested in.
		for _, id := range u.Investments {
			if si := startupIndex(id); seen[si] != mark {
				seen[si] = mark
				follows = append(follows, si)
			}
		}
		for k := len(follows); k < n; k++ {
			si := rng.Intn(nS)
			if seen[si] == mark {
				continue
			}
			seen[si] = mark
			follows = append(follows, int32(si))
		}
		// User-to-user follows.
		m := int(stats.LogNormal(rng, math.Log(cfg.FollowsUsersMean)-0.5, 1.0))
		if m > nU/2 {
			m = nU / 2
		}
		seenU[ui] = mark
		followsUsers = followsUsers[:0]
		for k := 0; k < m; k++ {
			vi := rng.Intn(nU)
			if seenU[vi] == mark {
				continue
			}
			seenU[vi] = mark
			followsUsers = append(followsUsers, int32(vi))
		}
		if err := em.user(u, follows, followsUsers); err != nil {
			return err
		}
		if !em.retain() {
			w.Users[ui] = nil
		}
	}
	return nil
}
