package ecosystem

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"crowdscope/internal/stats"
)

// baseDate anchors all generated timestamps; evolution steps advance from
// here.
var baseDate = time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)

// Generate builds a complete world from the configuration. Generation is
// deterministic in Config (including Seed).
func Generate(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := newWorld(cfg)
	if err := runGeneration(w, &memEmitter{w}); err != nil {
		return nil, err
	}
	w.reindex()
	return w, nil
}

func newWorld(cfg Config) *World {
	return &World{
		Cfg:        cfg,
		Facebook:   map[string]*FacebookProfile{},
		Twitter:    map[string]*TwitterProfile{},
		CrunchBase: map[string]*CrunchBaseProfile{},
	}
}

// runGeneration is the generation core shared by the in-memory and
// streaming paths. The phase order AND the RNG draw sequence inside each
// phase are load-bearing: the paper calibration (Figure 6 gradient,
// community masses, follow volumes) was fit against this exact sequence,
// and the streamed/in-memory identity guarantee depends on both paths
// consuming the same draws. Emission never consumes randomness, so the
// emitter choice cannot perturb the world.
//
// Entities are handed to the emitter at their final-mutation points:
// social profiles as they are created, CrunchBase profiles as they are
// created, startups after genCrunchBase assigns CrunchBase links, users
// as each finishes its follow-volume pass. A non-retaining emitter then
// has each startup replaced by a skeleton carrying only the fields later
// phases still read, and each user dropped, which is what bounds
// streamed memory.
func runGeneration(w *World, em emitter) error {
	rng := rand.New(rand.NewSource(w.Cfg.Seed))
	genStartups(w, rng)
	genUsers(w, rng)
	assignFounders(w, rng)
	engagement, err := genSocialProfiles(w, rng, em)
	if err != nil {
		return err
	}
	assignSuccess(w, rng, engagement)
	if err := genCrunchBase(w, rng, em); err != nil {
		return err
	}
	if err := emitStartups(w, em); err != nil {
		return err
	}
	if err := plantCommunitiesAndInvestments(w, rng); err != nil {
		return err
	}
	return genFollows(w, rng, em)
}

// emitStartups hands every startup to the emitter now that the last
// startup-mutating phase (genCrunchBase) has run. Without retention each
// record is replaced by a skeleton; the remaining phases only read a
// startup's ID and Raising flag.
func emitStartups(w *World, em emitter) error {
	for i, s := range w.Startups {
		if err := em.startup(s); err != nil {
			return err
		}
		if !em.retain() {
			w.Startups[i] = &Startup{ID: s.ID, Raising: s.Raising}
		}
	}
	return nil
}

// startupID names the startup generated at index i of World.Startups,
// userID the user at index i of World.Users; appendIDs writes the same
// names from indices. startupIndex inverts startupID, so a generation
// phase holding an ID can key per-startup state by index without an ID
// map. Generation only holds IDs it minted: any other string is a bug,
// and its -1 panics on use.
func startupID(i int) string { return "s" + strconv.Itoa(i+1) }

func userID(i int) string { return "u" + strconv.Itoa(i+1) }

// linkURL returns the link prefix+slug+sep+(i+1) of the startup at
// index i, built in *buf.
func linkURL(buf *[]byte, prefix string, slug []byte, sep byte, i int) string {
	b := append(append((*buf)[:0], prefix...), slug...)
	*buf = appendInt(append(b, sep), int64(i)+1)
	return string(*buf)
}

func startupIndex(id string) int32 {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "s")) // 0 on error: index -1
	return int32(n - 1)
}

// genStartups creates companies with raising flags, social links and demo
// videos, following the Figure 6 category masses.
func genStartups(w *World, rng *rand.Rand) {
	cfg := w.Cfg
	n := cfg.NumStartups()
	w.Startups = make([]*Startup, n)

	// Company names are unique by construction (as real company names
	// effectively are) except for a small deliberately duplicated
	// fraction, which makes those CrunchBase name searches ambiguous and
	// exercises the crawler's unique-match rule.
	used := make(map[string]struct{}, n)
	w.dupNames = map[string]bool{}
	var lastName string
	var key, slug, buf []byte // lastName normalized; reused buffers
	fbOnly := cfg.FacebookFrac - cfg.BothFrac
	twOnly := cfg.TwitterFrac - cfg.BothFrac
	for i := 0; i < n; i++ {
		var name string
		if lastName != "" && rng.Float64() < cfg.DupliNameFrac {
			name = lastName
			w.dupNames[string(key)] = true
		} else {
			name = companyName(rng)
			for key = appendNormalized(key[:0], name); ; key = appendNormalized(key[:0], name) {
				if _, dup := used[string(key)]; !dup {
					break
				}
				name = companyName(rng) + " " + companyHeads[rng.Intn(len(companyHeads))] + companyTails[rng.Intn(len(companyTails))]
			}
			used[string(key)] = struct{}{}
		}
		lastName = name
		s := &Startup{
			ID:   startupID(i),
			Name: name,
		}
		// Social category draw.
		u := rng.Float64()
		if u < cfg.BothFrac+fbOnly+twOnly {
			slug = appendSlug(slug[:0], name)
		}
		switch {
		case u < cfg.BothFrac:
			s.FacebookURL = linkURL(&buf, "https://facebook.com/", slug, '-', i)
			s.TwitterURL = linkURL(&buf, "https://twitter.com/", slug, '_', i)
		case u < cfg.BothFrac+fbOnly:
			s.FacebookURL = linkURL(&buf, "https://facebook.com/", slug, '-', i)
		case u < cfg.BothFrac+fbOnly+twOnly:
			s.TwitterURL = linkURL(&buf, "https://twitter.com/", slug, '_', i)
		}
		// Demo video, correlated with having a social presence.
		videoP := cfg.VideoFracNoSocial
		if s.FacebookURL != "" || s.TwitterURL != "" {
			videoP = cfg.VideoFracSocial
		}
		s.HasDemoVideo = rng.Float64() < videoP
		w.Startups[i] = s
	}
	// Currently-raising listing: a random subset, the crawl's seeds.
	raising := stats.ReservoirSample(rng, n, w.Cfg.numRaising())
	for _, idx := range raising {
		w.Startups[idx].Raising = true
	}
}

// genUsers creates users with the Section 3 role fractions.
func genUsers(w *World, rng *rand.Rand) {
	cfg := w.Cfg
	n := cfg.NumUsers()
	w.Users = make([]*User, n)
	for i := 0; i < n; i++ {
		u := &User{
			ID:   userID(i),
			Name: personName(rng),
		}
		r := rng.Float64()
		switch {
		case r < cfg.InvestorFrac:
			u.Role = RoleInvestor
		case r < cfg.InvestorFrac+cfg.FounderFrac:
			u.Role = RoleFounder
		case r < cfg.InvestorFrac+cfg.FounderFrac+cfg.EmployeeFrac:
			u.Role = RoleEmployee
		default:
			u.Role = RoleVisitor
		}
		w.Users[i] = u
	}
}

// assignFounders links founder users to the startups they founded.
func assignFounders(w *World, rng *rand.Rand) {
	for i, u := range w.Users {
		if u.Role != RoleFounder {
			continue
		}
		founded := 1 + rng.Intn(2)
		for k := 0; k < founded; k++ {
			s := w.Startups[rng.Intn(len(w.Startups))]
			s.FounderIDs = append(s.FounderIDs, u.ID)
		}
		_ = i
	}
}

// genSocialProfiles creates the Facebook and Twitter profiles behind each
// startup's links, driven by a per-company engagement latent so likes,
// tweets and followers are mutually correlated. It returns the latent per
// startup (positive = above-median engagement). Profiles are final at
// creation, so they are emitted immediately, keyed by the owning startup.
func genSocialProfiles(w *World, rng *rand.Rand, em emitter) ([]float64, error) {
	cfg := w.Cfg
	latent := make([]float64, len(w.Startups))
	for i, s := range w.Startups {
		e := rng.NormFloat64()
		latent[i] = e
		// Per-metric jitter keeps the metrics correlated but not identical.
		metric := func(median int, spread float64) int {
			z := 0.75*e + 0.66*rng.NormFloat64()
			return int(math.Round(float64(median) * math.Exp(spread*z)))
		}
		if s.FacebookURL != "" {
			p := &FacebookProfile{
				URL:         s.FacebookURL,
				Name:        s.Name,
				Location:    location(rng),
				Likes:       metric(cfg.MedianLikes, 1.3),
				RecentPosts: 1 + rng.Intn(30),
			}
			if err := em.facebook(s.ID, p); err != nil {
				return nil, err
			}
		}
		if s.TwitterURL != "" {
			username := s.TwitterURL[len("https://twitter.com/"):]
			created := baseDate.AddDate(-1-rng.Intn(5), rng.Intn(12), 0)
			p := &TwitterProfile{
				URL:            s.TwitterURL,
				Username:       username,
				CreatedAt:      created,
				FollowersCount: metric(cfg.MedianFollowers, 1.4),
				FriendsCount:   metric(cfg.MedianFollowers/2, 1.0),
				ListedCount:    rng.Intn(50),
				StatusesCount:  metric(cfg.MedianTweets, 1.5),
				LatestStatus:   "Shipping something new at " + s.Name,
				LatestStatusAt: baseDate.AddDate(0, 0, -rng.Intn(60)),
			}
			if err := em.twitter(s.ID, p); err != nil {
				return nil, err
			}
		}
	}
	return latent, nil
}

// assignSuccess decides which companies raised funding, reproducing the
// Figure 6 gradient: the base rate comes from the social category, then is
// tilted by engagement (above vs below median) and demo video while
// preserving the category average.
func assignSuccess(w *World, rng *rand.Rand, latent []float64) {
	cfg := w.Cfg
	w.Successful = make([]bool, len(w.Startups))
	for i, s := range w.Startups {
		var base float64
		switch {
		case s.FacebookURL != "" && s.TwitterURL != "":
			base = cfg.SuccessBoth
		case s.FacebookURL != "":
			base = cfg.SuccessFBOnly
		case s.TwitterURL != "":
			base = cfg.SuccessTWOnly
		default:
			base = cfg.SuccessNone
		}
		p := base
		if s.FacebookURL != "" || s.TwitterURL != "" {
			if latent[i] > 0 {
				p *= cfg.EngagementLift
			} else {
				p *= 2 - cfg.EngagementLift
			}
		}
		videoFrac := cfg.VideoFracNoSocial
		if s.FacebookURL != "" || s.TwitterURL != "" {
			videoFrac = cfg.VideoFracSocial
		}
		if s.HasDemoVideo {
			p *= cfg.VideoLift
		} else {
			// Renormalize so the category average is unchanged.
			p *= (1 - videoFrac*cfg.VideoLift) / (1 - videoFrac)
		}
		if p > 1 {
			p = 1
		}
		w.Successful[i] = rng.Float64() < p
	}
}

// genCrunchBase creates CrunchBase profiles: every successful company gets
// one (with rounds); a small extra fraction of unsuccessful companies have
// an empty profile. A CBLinkFrac share of profiles are linked from the
// AngelList side. Profiles are final at creation and emitted on the spot;
// the link assignment afterwards mutates only the startup.
func genCrunchBase(w *World, rng *rand.Rand, em emitter) error {
	cfg := w.Cfg
	var buf, slug []byte
	for i, s := range w.Startups {
		hasProfile := w.Successful[i]
		if !hasProfile {
			buf = appendNormalized(buf[:0], s.Name)
			hasProfile = w.dupNames[string(buf)] || rng.Float64() < cfg.CBNoRoundsFrac*0.02
		}
		if !hasProfile {
			continue
		}
		slug = appendSlug(slug[:0], s.Name)
		url := linkURL(&buf, "https://www.crunchbase.com/organization/", slug, '-', i)
		p := &CrunchBaseProfile{
			URL:    url,
			Name:   s.Name,
			ALLink: "https://angel.co/" + s.ID,
		}
		if w.Successful[i] {
			rounds := 1 + rng.Intn(3)
			date := baseDate.AddDate(-2, rng.Intn(12), rng.Intn(28))
			series := []string{"Seed", "A", "B"}
			for r := 0; r < rounds; r++ {
				amount := int64(stats.LogNormal(rng, 13.5+float64(r), 0.8)) // ≈$0.7M seed, growing
				p.Rounds = append(p.Rounds, FundingRound{
					Date:         date,
					AmountUSD:    amount,
					NumInvestors: 2 + rng.Intn(18),
					Series:       series[r],
				})
				date = date.AddDate(0, 8+rng.Intn(10), 0)
			}
		}
		if err := em.crunchbase(s.ID, p); err != nil {
			return err
		}
		if rng.Float64() < cfg.CBLinkFrac {
			s.CrunchBaseURL = url
		}
	}
	return nil
}
