// Package ecosystem generates the synthetic crowdfunding world that stands
// in for the paper's crawled snapshot of AngelList, CrunchBase, Facebook
// and Twitter.
//
// The generator is seeded and calibrated so that, at any scale, the
// marginals the paper reports hold: user role fractions (4.3% investors,
// 18.3% founders, 44.2% prospective employees), social-media attachment
// rates and the Figure 6 success gradient, the long-tailed
// investments-per-investor distribution of Figure 3 (mean ≈3.3, median 1),
// an average of ≈2.6 investors per invested company, and planted
// overlapping investor communities with a strength gradient that CoDA and
// the Section 5.3 metrics recover.
package ecosystem

import "time"

// Role is a user's self-identified role on the simulated AngelList.
type Role string

// Roles reported in Section 3 of the paper; the remainder of users are
// unclassified visitors.
const (
	RoleInvestor Role = "investor"
	RoleFounder  Role = "founder"
	RoleEmployee Role = "employee"
	RoleVisitor  Role = "visitor"
)

// User is a simulated AngelList user. Follow edges point at both startups
// and other users, which is what lets the paper's breadth-first crawl
// expand its frontier.
type User struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	Role Role   `json:"role"`
	// FollowsStartups lists startup IDs this user follows.
	FollowsStartups []string `json:"follows_startups,omitempty"`
	// FollowsUsers lists user IDs this user follows.
	FollowsUsers []string `json:"follows_users,omitempty"`
	// Investments lists startup IDs this user has invested in (investors
	// only).
	Investments []string `json:"investments,omitempty"`
}

// Startup is a simulated AngelList company profile.
type Startup struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Raising marks companies currently running a fundraising campaign;
	// the AngelList listing API only exposes these (about 4,000 at paper
	// scale), which is why the crawler needs its BFS.
	Raising bool `json:"raising"`
	// HasDemoVideo mirrors the AngelList demo-video feature of Figure 6.
	HasDemoVideo bool `json:"has_demo_video"`
	// FacebookURL/TwitterURL are the social links present on the profile;
	// empty when the company omitted them (the paper treats link presence
	// as a lower bound on social presence).
	FacebookURL string `json:"facebook_url,omitempty"`
	TwitterURL  string `json:"twitter_url,omitempty"`
	// CrunchBaseURL links the profile to CrunchBase when the company
	// filled it in; otherwise the crawler falls back to name search.
	CrunchBaseURL string `json:"crunchbase_url,omitempty"`
	// FounderIDs are the founding users.
	FounderIDs []string `json:"founder_ids,omitempty"`
}

// FacebookProfile is what the simulated Graph API returns for a page.
type FacebookProfile struct {
	URL         string `json:"url"`
	Name        string `json:"name"`
	Location    string `json:"location"`
	Likes       int    `json:"likes"`
	RecentPosts int    `json:"recent_posts"`
}

// TwitterProfile is what the simulated Twitter REST API returns.
type TwitterProfile struct {
	URL            string    `json:"url"`
	Username       string    `json:"username"`
	CreatedAt      time.Time `json:"created_at"`
	FollowersCount int       `json:"followers_count"`
	FriendsCount   int       `json:"friends_count"`
	ListedCount    int       `json:"listed_count"`
	StatusesCount  int       `json:"statuses_count"`
	LatestStatus   string    `json:"latest_status"`
	LatestStatusAt time.Time `json:"latest_status_at"`
}

// FundingRound is one CrunchBase funding event.
type FundingRound struct {
	Date         time.Time `json:"date"`
	AmountUSD    int64     `json:"amount_usd"`
	NumInvestors int       `json:"num_investors"`
	Series       string    `json:"series"`
}

// CrunchBaseProfile is a simulated CrunchBase organization entry. A
// company counts as having "successfully raised funding" (Figure 6) when
// it has at least one round.
type CrunchBaseProfile struct {
	URL    string         `json:"url"`
	Name   string         `json:"name"`
	ALLink string         `json:"angellist_url,omitempty"`
	Rounds []FundingRound `json:"rounds,omitempty"`
}

// Syndicate records a lead investor and the backers who mirror its
// investments (the AngelList syndicate mechanism of §2) — a second
// planted herd mechanism alongside communities.
type Syndicate struct {
	Lead    int32
	Backers []int32
}

// Community records a planted investor community: ground truth for
// evaluating detection algorithms (ablation A2).
type Community struct {
	ID int
	// Cohesion in (0,1]: the probability a member's investment draw goes
	// into the community portfolio rather than the global market. Strong
	// (close-knit) communities have high cohesion.
	Cohesion float64
	// Members are user indices of investors in the community.
	Members []int32
	// Portfolio are startup indices the community co-invests in.
	Portfolio []int32
}

// World is the fully generated ecosystem plus index structures used by the
// simulated APIs.
type World struct {
	Cfg      Config
	Startups []*Startup
	Users    []*User

	// Facebook and Twitter profiles keyed by profile URL; CrunchBase
	// profiles keyed by CrunchBase URL.
	Facebook   map[string]*FacebookProfile
	Twitter    map[string]*TwitterProfile
	CrunchBase map[string]*CrunchBaseProfile

	// Successful marks startup indices that raised at least one round.
	Successful []bool

	// Planted ground-truth communities.
	Communities []*Community

	// Planted syndicates (lead + backers).
	Syndicates []*Syndicate

	// Day counts evolution steps applied by Evolve, for longitudinal
	// experiments.
	Day int

	// dupNames records deliberately duplicated (normalized) company
	// names, so CrunchBase gives each namesake a profile and name search
	// is genuinely ambiguous.
	dupNames map[string]bool

	startupIdx map[string]int32
	userIdx    map[string]int32
	// cbByName indexes CrunchBase profiles by lowercase name for the
	// search API; names mapping to multiple profiles are ambiguous, which
	// exercises the crawler's unique-match rule.
	cbByName map[string][]*CrunchBaseProfile
}

// StartupByID returns the startup with the given ID, or nil.
func (w *World) StartupByID(id string) *Startup {
	if i, ok := w.startupIdx[id]; ok {
		return w.Startups[i]
	}
	return nil
}

// UserByID returns the user with the given ID, or nil.
func (w *World) UserByID(id string) *User {
	if i, ok := w.userIdx[id]; ok {
		return w.Users[i]
	}
	return nil
}

// CrunchBaseByName returns the profiles whose name matches (case
// insensitive), mimicking the CrunchBase search API.
func (w *World) CrunchBaseByName(name string) []*CrunchBaseProfile {
	return w.cbByName[normalizeName(name)]
}

// reindex rebuilds the lookup maps after generation or evolution.
func (w *World) reindex() {
	w.startupIdx = make(map[string]int32, len(w.Startups))
	for i, s := range w.Startups {
		w.startupIdx[s.ID] = int32(i)
	}
	w.userIdx = make(map[string]int32, len(w.Users))
	for i, u := range w.Users {
		w.userIdx[u.ID] = int32(i)
	}
	w.cbByName = make(map[string][]*CrunchBaseProfile, len(w.CrunchBase))
	for _, p := range w.CrunchBase {
		key := normalizeName(p.Name)
		w.cbByName[key] = append(w.cbByName[key], p)
	}
}
