package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"crowdscope/internal/crawler"
	"crowdscope/internal/parallel"
	"crowdscope/internal/store"
)

// Company is the merged per-company record the analyses consume: the
// AngelList profile joined with its CrunchBase funding data and its
// Facebook/Twitter engagement counts.
type Company struct {
	ID          string
	Name        string
	Raising     bool
	HasVideo    bool
	HasFacebook bool
	HasTwitter  bool

	// Engagement (zero when the company has no such profile).
	Likes     int
	Tweets    int
	Followers int

	// Funding from CrunchBase: Funded mirrors the paper's "successfully
	// raised funding".
	Funded         bool
	RoundCount     int
	TotalRaisedUSD int64
}

// Investor is the merged per-investor record for the Section 5 analyses.
type Investor struct {
	ID          string
	Investments []string
	Follows     int
}

// latestSnapshot returns the largest snapshot tag in the startups
// namespace, or an error when nothing was crawled. The context bounds
// the namespace scan, which decodes the tag and nothing else.
func latestSnapshot(ctx context.Context, st *store.Store) (int, error) {
	latest := -1
	err := store.ScanAsContext(ctx, st, crawler.NSStartups, func(r struct{ Snapshot int }) error {
		if r.Snapshot > latest {
			latest = r.Snapshot
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if latest < 0 {
		return 0, fmt.Errorf("core: no startup snapshots in store")
	}
	return latest, nil
}

// crawledSnapshot resolves the loaders' "-1 means latest" convention.
func crawledSnapshot(ctx context.Context, st *store.Store, snapshot int) (int, error) {
	if snapshot >= 0 {
		return snapshot, nil
	}
	return latestSnapshot(ctx, st)
}

// The row functions below are the only statement of the paper's merge:
// every feeder — the store loader in this file, the in-memory crawl
// merge in crawldiff.go — reduces its records to their arguments, so a
// raw-unchanged entity always merges to an identical row.

// startupRecord, userRecord, cbProfile, fbProfile and twProfile are the
// narrow projections of the persisted AngelList, CrunchBase, Facebook
// and Twitter records: the snapshot tag that selects a record and
// exactly the fields the row functions read. Decoding into them skips
// the rest of the ecosystem schemas — a user's follow lists, the bulk
// of the store, and the time.Time fields above all.
type startupRecord struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Raising      bool   `json:"raising"`
	HasDemoVideo bool   `json:"has_demo_video"`
	FacebookURL  string `json:"facebook_url"`
	TwitterURL   string `json:"twitter_url"`
	Snapshot     int    `json:"snapshot"`
}

type userRecord struct {
	ID          string   `json:"id"`
	Investments []string `json:"investments"`
	Follows     arrayLen `json:"follows_startups"`
	Snapshot    int      `json:"snapshot"`
}

// arrayLen decodes a JSON array of strings to the len() of the
// []string it stands in for, allocating nothing: null elements count
// (they decode to ""), a null array is 0, any other element or value is
// an error. It only has to find the elements: encoding/json validates
// the whole payload before it calls an Unmarshaler.
type arrayLen int

func (n *arrayLen) UnmarshalJSON(b []byte) error {
	isArray := len(b) > 0 && b[0] == '['
	count, ok := 0, isArray || string(b) == "null"
	for i := 1; isArray && ok && i < len(b); i++ {
		switch b[i] {
		case '"': // skip to the closing quote, over escaped ones
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			count++
		case 'n': // null
			i += 3
			count++
		case ',', ']', ' ', '\t', '\n', '\r':
		default:
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("core: want a JSON array of strings, got %.40q", b)
	}
	*n = arrayLen(count)
	return nil
}

type cbProfile struct {
	Rounds []cbRound `json:"rounds"`
}

type cbRound struct {
	AmountUSD int64 `json:"amount_usd"`
}

type fbProfile struct {
	Likes int `json:"likes"`
}

type twProfile struct {
	StatusesCount  int `json:"statuses_count"`
	FollowersCount int `json:"followers_count"`
}

// companyRow is the company join: the AngelList profile left-outer
// joined with its CrunchBase, Facebook and Twitter profiles. A nil
// profile (the source had none, or the crawl skipped it) leaves its
// fields zero.
func companyRow(s *startupRecord, cb *cbProfile, fb *fbProfile, tw *twProfile) Company {
	c := Company{
		ID:          s.ID,
		Name:        s.Name,
		Raising:     s.Raising,
		HasVideo:    s.HasDemoVideo,
		HasFacebook: s.FacebookURL != "",
		HasTwitter:  s.TwitterURL != "",
	}
	if cb != nil {
		c.RoundCount = len(cb.Rounds)
		c.Funded = len(cb.Rounds) > 0
		for _, r := range cb.Rounds {
			c.TotalRaisedUSD += r.AmountUSD
		}
	}
	if fb != nil {
		c.Likes = fb.Likes
	}
	if tw != nil {
		c.Tweets = tw.StatusesCount
		c.Followers = tw.FollowersCount
	}
	return c
}

// investorRow is the investor projection; ok is false for users with no
// investments (the paper's bipartite graph omits them).
func investorRow(id string, investments []string, follows int) (Investor, bool) {
	if len(investments) == 0 {
		return Investor{}, false
	}
	return Investor{ID: id, Investments: investments, Follows: follows}, true
}

// The store loader walks the crawl namespaces shard by shard. The
// namespaces are co-sharded by startup ID, so a shard is join-closed:
// gather the shard's augmentation profiles by startup ID, stream its
// startups through companyRow, release the profiles. An unsharded store
// is the K=1 case of the same walk. Within a shard records arrive in
// append order and later ones replace earlier ones, so a round persisted
// twice (a re-crawl, a resume after a crash) loads as if persisted once.

// walkShards runs walk over the k shards on parallel.Default() and
// returns their rows concatenated in shard order, then sorted by ID (IDs
// are unique), so the rows are the same at every K and worker count.
// Peak memory is workers × one shard's profiles plus the merged rows.
func walkShards[T any](k int, id func(T) string, walk func(shard int) ([]T, error)) ([]T, error) {
	parts := make([][]T, k)
	err := parallel.Default().EachErr(k, func(shard int) (err error) {
		parts[shard], err = walk(shard)
		return err
	})
	if err != nil {
		return nil, err
	}
	rows := slices.Concat(parts...)
	slices.SortFunc(rows, func(a, b T) int { return strings.Compare(id(a), id(b)) })
	return rows, nil
}

// shardProfiles returns, by startup ID, the snapshot's profiles in one
// shard of an augmentation namespace — nil for a namespace the crawl
// never wrote.
func shardProfiles[T any](ctx context.Context, st *store.Store, ns string, shard, snap int) (map[string]*T, error) {
	if !hasNamespace(st, ns) {
		return nil, nil
	}
	profiles := map[string]*T{}
	err := store.ScanShardAsContext(ctx, st, ns, shard, func(r crawler.AugmentRecord[T]) error {
		if r.Snapshot == snap {
			profiles[r.StartupID] = &r.Profile
		}
		return nil
	})
	return profiles, err
}

// LoadCompanies merges the given snapshot's startups with their
// CrunchBase, Facebook and Twitter augmentations (the paper's Spark
// merge) into the ID-sorted company rows; augmentations without a
// matching startup are dropped. Pass snapshot -1 to use the latest. The
// context bounds the namespace scans.
func LoadCompanies(ctx context.Context, st *store.Store, snapshot int) ([]Company, error) {
	snap, err := crawledSnapshot(ctx, st, snapshot)
	if err != nil {
		return nil, err
	}
	k, err := st.ShardCount(crawler.NSStartups)
	if err != nil {
		return nil, err
	}
	// Augmentations are keyed by startup ID; they join shard-locally only
	// when persisted with the startups' shard count.
	for _, ns := range []string{crawler.NSCrunchBase, crawler.NSFacebook, crawler.NSTwitter} {
		if !hasNamespace(st, ns) {
			continue
		}
		ak, err := st.ShardCount(ns)
		if err != nil {
			return nil, err
		}
		if ak != k {
			return nil, fmt.Errorf("core: %s has %d shards, %s has %d: not co-sharded", ns, ak, crawler.NSStartups, k)
		}
	}
	return walkShards(k, func(c Company) string { return c.ID }, func(shard int) ([]Company, error) {
		cb, err := shardProfiles[cbProfile](ctx, st, crawler.NSCrunchBase, shard, snap)
		if err != nil {
			return nil, err
		}
		fb, err := shardProfiles[fbProfile](ctx, st, crawler.NSFacebook, shard, snap)
		if err != nil {
			return nil, err
		}
		tw, err := shardProfiles[twProfile](ctx, st, crawler.NSTwitter, shard, snap)
		if err != nil {
			return nil, err
		}
		var rows []Company
		at := map[string]int{} // startup ID → its row, for a later record to replace
		err = store.ScanShardAsContext(ctx, st, crawler.NSStartups, shard, func(r startupRecord) error {
			if r.Snapshot != snap {
				return nil
			}
			row := companyRow(&r, cb[r.ID], fb[r.ID], tw[r.ID])
			if i, seen := at[r.ID]; seen {
				rows[i] = row
			} else {
				at[r.ID] = len(rows)
				rows = append(rows, row)
			}
			return nil
		})
		return rows, err
	})
}

// LoadInvestors returns the snapshot's investor rows sorted by ID: the
// users with at least one investment, reduced to ID, investment list
// and follow count. The raw follow lists — the bulk of a user record —
// are counted, never decoded. Pass snapshot -1 for the latest. The
// context bounds the namespace scan.
func LoadInvestors(ctx context.Context, st *store.Store, snapshot int) ([]Investor, error) {
	snap, err := crawledSnapshot(ctx, st, snapshot)
	if err != nil {
		return nil, err
	}
	k, err := st.ShardCount(crawler.NSUsers)
	if err != nil {
		return nil, err
	}
	return walkShards(k, func(inv Investor) string { return inv.ID }, func(shard int) ([]Investor, error) {
		byID := map[string]Investor{}
		err := store.ScanShardAsContext(ctx, st, crawler.NSUsers, shard, func(r userRecord) error {
			if r.Snapshot != snap {
				return nil
			}
			if inv, ok := investorRow(r.ID, r.Investments, int(r.Follows)); ok {
				byID[r.ID] = inv
			} else {
				delete(byID, r.ID)
			}
			return nil
		})
		rows := make([]Investor, 0, len(byID))
		for _, inv := range byID {
			rows = append(rows, inv)
		}
		return rows, err
	})
}

func hasNamespace(st *store.Store, ns string) bool {
	for _, known := range st.Namespaces() {
		if known == ns {
			return true
		}
	}
	return false
}
