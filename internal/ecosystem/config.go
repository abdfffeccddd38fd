package ecosystem

import (
	"fmt"
	"math"
)

// Paper-scale reference counts (Section 3).
const (
	PaperStartups = 744036
	PaperUsers    = 1109441
	// PaperRaising is the size of the AngelList "currently raising"
	// listing the crawl seeds from.
	PaperRaising = 4000
	// PaperCommunities is the number of communities CoDA found (§5.2).
	PaperCommunities = 96
)

// Config parameterizes world generation. NewConfig supplies the calibrated
// defaults; tests and examples override what they study.
type Config struct {
	// Seed drives every random choice; equal configs generate equal
	// worlds.
	Seed int64
	// Scale is the fraction of paper scale to generate (1.0 = 744,036
	// startups and 1,109,441 users). Typical test scale is 0.01-0.05.
	Scale float64

	// Role fractions of users (§3: 4.3% / 18.3% / 44.2%).
	InvestorFrac float64
	FounderFrac  float64
	EmployeeFrac float64

	// Social category probabilities for startups (Figure 6 column 2):
	// P(Facebook link), P(Twitter link), P(both). "Only" masses are
	// derived: fbOnly = FacebookFrac-BothFrac, twOnly = TwitterFrac-BothFrac.
	FacebookFrac float64
	TwitterFrac  float64
	BothFrac     float64

	// Demo-video attachment probabilities conditional on social presence.
	VideoFracSocial   float64
	VideoFracNoSocial float64

	// Success (raised >= 1 round) base rates per social category
	// (Figure 6 column 3).
	SuccessNone   float64
	SuccessFBOnly float64
	SuccessTWOnly float64
	SuccessBoth   float64
	// EngagementLift multiplies the base rate for companies with
	// above-median social engagement, and its reciprocal mass is removed
	// from below-median companies so the category average is preserved:
	// p(high) = base*EngagementLift, p(low) = base*(2-EngagementLift).
	EngagementLift float64
	// VideoLift multiplies the success rate for companies with a demo
	// video (renormalized within category in the same way).
	VideoLift float64

	// Median engagement targets (Figure 6: 652 likes, 343 tweets, 339
	// followers). Engagement counts are lognormal with these medians.
	MedianLikes     int
	MedianTweets    int
	MedianFollowers int

	// Investment distribution: fraction of investors who have invested at
	// all, probability mass at exactly one investment, and the mean/max of
	// the whole distribution (Figure 3: mean ≈3.3, median 1, max ≈1000 at
	// paper scale).
	InvestingInvestorFrac float64
	SingleInvestmentFrac  float64
	MeanInvestments       float64
	MaxInvestments        int

	// FollowsPerInvestor is the average number of startups an investor
	// follows (§3 reports 247). Non-investors follow fewer.
	FollowsPerInvestor    float64
	FollowsPerNonInvestor float64
	// FollowsUsersMean is the average user->user follow out-degree.
	FollowsUsersMean float64

	// Communities: count at paper scale, mean members per community, and
	// the cohesion gradient endpoints (strongest to weakest).
	CommunityCount   int
	CommunityMeanSz  float64
	CohesionMax      float64
	CohesionMin      float64
	MinCommunityDeg  int
	PortfolioPerDraw float64

	// Syndicates (§2: investors invite other accredited investors to
	// form syndicates): SyndicateFrac of investing investors lead one,
	// with ≈SyndicateBackers backers each; a backer routes a draw to
	// mirror its lead's portfolio with probability SyndicateMirror.
	// Mirroring spends the backer's existing draw budget, so the Figure 3
	// calibration is unaffected.
	SyndicateFrac    float64
	SyndicateBackers int
	SyndicateMirror  float64

	// RaisingCount is the size of the "currently raising" listing at
	// paper scale.
	RaisingCount int

	// CrunchBase linking behaviour: fraction of successful companies whose
	// AngelList profile carries the CrunchBase URL directly (the rest are
	// found by name search), and the fraction of company names that are
	// deliberately duplicated so name search is ambiguous.
	CBLinkFrac     float64
	DupliNameFrac  float64
	CBNoRoundsFrac float64

	// Shards is the store shard count GenerateTo writes each gen/*
	// namespace with (0 picks DefaultShards). It has no effect on the
	// generated world — only on how the streamed records are partitioned
	// on disk — so it is deliberately absent from Validate's invariants.
	Shards int
}

// NewConfig returns the calibrated defaults at the given scale and seed.
func NewConfig(seed int64, scale float64) Config {
	return Config{
		Seed:  seed,
		Scale: scale,

		InvestorFrac: 0.043,
		FounderFrac:  0.183,
		EmployeeFrac: 0.442,

		FacebookFrac: 0.0507,
		TwitterFrac:  0.0948,
		BothFrac:     0.0437,

		VideoFracSocial:   0.35,
		VideoFracNoSocial: 0.015,

		SuccessNone:    0.004,
		SuccessFBOnly:  0.122,
		SuccessTWOnly:  0.102,
		SuccessBoth:    0.132,
		EngagementLift: 1.48,
		VideoLift:      1.45,

		MedianLikes:     652,
		MedianTweets:    343,
		MedianFollowers: 339,

		InvestingInvestorFrac: 0.992,
		SingleInvestmentFrac:  0.55,
		MeanInvestments:       3.37,
		MaxInvestments:        1000,

		FollowsPerInvestor:    247,
		FollowsPerNonInvestor: 12,
		FollowsUsersMean:      8,

		CommunityCount:   PaperCommunities,
		CommunityMeanSz:  190.2,
		CohesionMax:      0.85,
		CohesionMin:      0.05,
		MinCommunityDeg:  4,
		PortfolioPerDraw: 2.2,

		SyndicateFrac:    0.01,
		SyndicateBackers: 6,
		SyndicateMirror:  0.5,

		RaisingCount: PaperRaising,

		CBLinkFrac:     0.7,
		DupliNameFrac:  0.01,
		CBNoRoundsFrac: 0.1,
	}
}

// validate checks that the configuration is internally consistent.
func (c Config) validate() error {
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("ecosystem: scale must be in (0,1], got %g", c.Scale)
	}
	if c.InvestorFrac+c.FounderFrac+c.EmployeeFrac > 1 {
		return fmt.Errorf("ecosystem: role fractions exceed 1")
	}
	if c.BothFrac > c.FacebookFrac || c.BothFrac > c.TwitterFrac {
		return fmt.Errorf("ecosystem: BothFrac exceeds a marginal social fraction")
	}
	if c.FacebookFrac+c.TwitterFrac-c.BothFrac > 1 {
		return fmt.Errorf("ecosystem: social fractions exceed 1")
	}
	for _, p := range []float64{c.SuccessNone, c.SuccessFBOnly, c.SuccessTWOnly, c.SuccessBoth} {
		if p < 0 || p > 1 {
			return fmt.Errorf("ecosystem: success rate %g out of range", p)
		}
	}
	if c.EngagementLift < 1 || c.EngagementLift > 2 {
		return fmt.Errorf("ecosystem: EngagementLift must be in [1,2], got %g", c.EngagementLift)
	}
	if c.VideoLift < 1 || c.VideoLift > 2 {
		return fmt.Errorf("ecosystem: VideoLift must be in [1,2], got %g", c.VideoLift)
	}
	if c.SingleInvestmentFrac <= 0 || c.SingleInvestmentFrac >= 1 {
		return fmt.Errorf("ecosystem: SingleInvestmentFrac must be in (0,1)")
	}
	if c.MeanInvestments <= 1 {
		return fmt.Errorf("ecosystem: MeanInvestments must exceed 1")
	}
	if c.MaxInvestments < 2 {
		return fmt.Errorf("ecosystem: MaxInvestments must be >= 2")
	}
	if c.CommunityCount < 1 {
		return fmt.Errorf("ecosystem: CommunityCount must be >= 1")
	}
	if c.CohesionMin <= 0 || c.CohesionMax > 1 || c.CohesionMin > c.CohesionMax {
		return fmt.Errorf("ecosystem: cohesion range [%g,%g] invalid", c.CohesionMin, c.CohesionMax)
	}
	if c.SyndicateFrac < 0 || c.SyndicateFrac > 0.5 {
		return fmt.Errorf("ecosystem: SyndicateFrac %g out of range", c.SyndicateFrac)
	}
	if c.SyndicateMirror < 0 || c.SyndicateMirror > 1 {
		return fmt.Errorf("ecosystem: SyndicateMirror %g out of range", c.SyndicateMirror)
	}
	return nil
}

// NumStartups returns the startup count at this scale.
func (c Config) NumStartups() int { return scaled(PaperStartups, c.Scale) }

// NumUsers returns the user count at this scale.
func (c Config) NumUsers() int { return scaled(PaperUsers, c.Scale) }

// numRaising returns the size of the currently-raising listing.
func (c Config) numRaising() int {
	n := scaled(c.RaisingCount, c.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// NumCommunities returns the planted community count at this scale.
// Community count grows sublinearly with population (community size grows
// with it instead), so it scales with sqrt(Scale).
func (c Config) NumCommunities() int {
	n := int(math.Round(float64(c.CommunityCount) * math.Sqrt(c.Scale)))
	if n < 2 {
		n = 2
	}
	return n
}

func scaled(paper int, scale float64) int {
	n := int(math.Round(float64(paper) * scale))
	if n < 1 {
		n = 1
	}
	return n
}
