package core

import (
	"fmt"

	"crowdscope/internal/stats"
)

// EngagementRow is one row of the Figure 6 table: a company category, how
// many companies fall in it, and the share of those that successfully
// raised funding.
type EngagementRow struct {
	Label      string
	Count      int
	PctOfAll   float64 // percentage of all companies
	SuccessPct float64 // percentage of the category that raised funding
}

// EngagementThresholds holds the medians that define the "high
// engagement" rows; the paper uses the medians across valid accounts
// (652 likes, 343 tweets, 339 followers at paper scale).
type EngagementThresholds struct {
	Likes     int
	Tweets    int
	Followers int
}

// thresholds computes the category medians from the data, as the paper
// does.
func thresholds(companies []Company) EngagementThresholds {
	var likes, tweets, followers []float64
	for _, c := range companies {
		if c.HasFacebook {
			likes = append(likes, float64(c.Likes))
		}
		if c.HasTwitter {
			tweets = append(tweets, float64(c.Tweets))
			followers = append(followers, float64(c.Followers))
		}
	}
	return EngagementThresholds{
		Likes:     int(stats.Median(likes)),
		Tweets:    int(stats.Median(tweets)),
		Followers: int(stats.Median(followers)),
	}
}

// EngagementTable reproduces the Figure 6 summary table over the merged
// companies: one count of matches and of funded matches per category
// (the paper's Spark aggregation). The categories follow the paper's
// semantics: "Facebook" and "Twitter" rows mean a valid link is present
// (possibly along with the other network); success means at least one
// CrunchBase funding round. The error is always nil.
func EngagementTable(companies []Company) ([]EngagementRow, EngagementThresholds, error) {
	th := thresholds(companies)
	total := len(companies)

	categories := []struct {
		label string
		pred  func(Company) bool
	}{
		{"No social media presence", func(c Company) bool { return !c.HasFacebook && !c.HasTwitter }},
		{"Facebook", func(c Company) bool { return c.HasFacebook }},
		{"Twitter", func(c Company) bool { return c.HasTwitter }},
		{"Facebook and Twitter", func(c Company) bool { return c.HasFacebook && c.HasTwitter }},
		{"Presence of demo video", func(c Company) bool { return c.HasVideo }},
		{"No demo video", func(c Company) bool { return !c.HasVideo }},
		{fmt.Sprintf("Facebook (>%d likes)", th.Likes), func(c Company) bool { return c.HasFacebook && c.Likes > th.Likes }},
		{fmt.Sprintf("Twitter (>%d tweets)", th.Tweets), func(c Company) bool { return c.HasTwitter && c.Tweets > th.Tweets }},
		{fmt.Sprintf("Twitter (>%d followers)", th.Followers), func(c Company) bool { return c.HasTwitter && c.Followers > th.Followers }},
		{fmt.Sprintf("Facebook (>%d likes) and Twitter (>%d followers)", th.Likes, th.Followers),
			func(c Company) bool {
				return c.HasFacebook && c.Likes > th.Likes && c.HasTwitter && c.Followers > th.Followers
			}},
		{fmt.Sprintf("Facebook (>%d likes) and Twitter (>%d tweets)", th.Likes, th.Tweets),
			func(c Company) bool {
				return c.HasFacebook && c.Likes > th.Likes && c.HasTwitter && c.Tweets > th.Tweets
			}},
	}

	rows := make([]EngagementRow, 0, len(categories))
	for _, cat := range categories {
		n, funded := 0, 0
		for _, c := range companies {
			if cat.pred(c) {
				n++
				if c.Funded {
					funded++
				}
			}
		}
		row := EngagementRow{Label: cat.label, Count: n}
		if total > 0 {
			row.PctOfAll = float64(n) / float64(total) * 100
		}
		if n > 0 {
			row.SuccessPct = float64(funded) / float64(n) * 100
		}
		rows = append(rows, row)
	}
	return rows, th, nil
}

// Significance tests a category's success rate against the no-social
// baseline with a chi-square test on the 2×2 funded × category table,
// quantifying whether a Figure 6 difference exceeds sampling noise (the
// paper reports point estimates only).
type Significance struct {
	Label string
	Chi2  float64
	P     float64
}

// EngagementSignificance computes chi-square significance for every
// category against the "No social media presence" baseline.
func EngagementSignificance(companies []Company, rows []EngagementRow) ([]Significance, error) {
	var baseFunded, baseAll float64
	for _, c := range companies {
		if !c.HasFacebook && !c.HasTwitter {
			baseAll++
			if c.Funded {
				baseFunded++
			}
		}
	}
	var out []Significance
	for _, r := range rows {
		if r.Label == "No social media presence" {
			continue
		}
		funded := float64(r.Count) * r.SuccessPct / 100
		chi2, p, err := stats.ChiSquare2x2(funded, float64(r.Count)-funded, baseFunded, baseAll-baseFunded)
		if err != nil {
			return nil, fmt.Errorf("core: significance for %s: %w", r.Label, err)
		}
		out = append(out, Significance{Label: r.Label, Chi2: chi2, P: p})
	}
	return out, nil
}

// Lift returns the ratio of a category's success rate to the no-social
// baseline — the paper's "30X more likely to succeed" statistic.
func Lift(rows []EngagementRow, label string) (float64, error) {
	var base, target float64
	var haveBase, haveTarget bool
	for _, r := range rows {
		if r.Label == "No social media presence" {
			base = r.SuccessPct
			haveBase = true
		}
		if r.Label == label {
			target = r.SuccessPct
			haveTarget = true
		}
	}
	if !haveBase || !haveTarget {
		return 0, fmt.Errorf("core: lift labels not found (base=%v target=%v)", haveBase, haveTarget)
	}
	if base == 0 {
		return 0, fmt.Errorf("core: zero baseline success rate")
	}
	return target / base, nil
}
