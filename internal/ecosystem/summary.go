package ecosystem

import "crowdscope/internal/stats"

// GroundTruth summarizes the generated world for calibration tests and for
// checking crawl completeness. All fields are computed from the world
// itself (not from configuration), so tests compare outcomes, not inputs.
type GroundTruth struct {
	Startups int
	Users    int

	Investors int
	Founders  int
	Employees int

	WithFacebook int
	WithTwitter  int
	WithBoth     int
	WithNeither  int
	WithVideo    int

	Successful        int
	CrunchBaseEntries int

	// Investment distribution over investors that invested at least once.
	InvestingInvestors int
	InvestmentEdges    int
	InvestedCompanies  int
	MeanInvestments    float64
	MedianInvestments  float64
	MaxInvestments     int
	MeanInvestorsPerCo float64

	// Follow stats.
	MeanFollowsInvestor float64

	// Syndicates planted (lead + backers).
	Syndicates int
}

// Summarize computes the ground truth of a world.
func (w *World) Summarize() GroundTruth {
	var gt GroundTruth
	gt.Startups = len(w.Startups)
	gt.Users = len(w.Users)
	for _, s := range w.Startups {
		fb := s.FacebookURL != ""
		tw := s.TwitterURL != ""
		if fb {
			gt.WithFacebook++
		}
		if tw {
			gt.WithTwitter++
		}
		if fb && tw {
			gt.WithBoth++
		}
		if !fb && !tw {
			gt.WithNeither++
		}
		if s.HasDemoVideo {
			gt.WithVideo++
		}
	}
	for _, ok := range w.Successful {
		if ok {
			gt.Successful++
		}
	}
	gt.CrunchBaseEntries = len(w.CrunchBase)

	var invCounts []float64
	var followInv []float64
	companies := map[string]int{}
	for _, u := range w.Users {
		switch u.Role {
		case RoleInvestor:
			gt.Investors++
			followInv = append(followInv, float64(len(u.FollowsStartups)))
		case RoleFounder:
			gt.Founders++
		case RoleEmployee:
			gt.Employees++
		}
		if len(u.Investments) > 0 {
			gt.InvestingInvestors++
			gt.InvestmentEdges += len(u.Investments)
			invCounts = append(invCounts, float64(len(u.Investments)))
			if len(u.Investments) > gt.MaxInvestments {
				gt.MaxInvestments = len(u.Investments)
			}
			for _, id := range u.Investments {
				companies[id]++
			}
		}
	}
	gt.Syndicates = len(w.Syndicates)
	gt.InvestedCompanies = len(companies)
	if len(invCounts) > 0 {
		gt.MeanInvestments = stats.Mean(invCounts)
		gt.MedianInvestments = stats.Median(invCounts)
	}
	if gt.InvestedCompanies > 0 {
		gt.MeanInvestorsPerCo = float64(gt.InvestmentEdges) / float64(gt.InvestedCompanies)
	}
	if len(followInv) > 0 {
		gt.MeanFollowsInvestor = stats.Mean(followInv)
	}
	return gt
}
