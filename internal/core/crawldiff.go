package core

import (
	"fmt"
	"sort"

	"crowdscope/internal/crawler"
)

// Round diffing: instead of re-reading every persisted record
// (BuildFrozen's feeder), an incremental crawl round merges the in-memory
// crawl snapshot entity by entity and diffs the result against the
// previous frozen snapshot. Both feeders go through merge.go's row
// functions — pure functions of the raw records, so a raw-unchanged
// entity always merges to an identical row, which is what makes the
// crawler's conservative RoundDiff a sound pre-filter.

// crawlCompany narrows one crawled startup's profiles to companyRow's
// projections and builds its row.
func crawlCompany(cur *crawler.Snapshot, id string) Company {
	var cb *cbProfile
	if p := cur.CrunchBase[id]; p != nil {
		cb = &cbProfile{Rounds: make([]cbRound, len(p.Rounds))}
		for i, r := range p.Rounds {
			cb.Rounds[i].AmountUSD = r.AmountUSD
		}
	}
	var fb *fbProfile
	if p := cur.Facebook[id]; p != nil {
		fb = &fbProfile{Likes: p.Likes}
	}
	var tw *twProfile
	if p := cur.Twitter[id]; p != nil {
		tw = &twProfile{StatusesCount: p.StatusesCount, FollowersCount: p.FollowersCount}
	}
	s := cur.Startups[id]
	return companyRow(&startupRecord{ID: s.ID, Name: s.Name, Raising: s.Raising, HasDemoVideo: s.HasDemoVideo,
		FacebookURL: s.FacebookURL, TwitterURL: s.TwitterURL}, cb, fb, tw)
}

// mergeCrawl merges the whole crawl snapshot in memory, producing the
// same sorted entity lists the store loader derives from the persisted
// records (graph not built — callers diff entities).
func mergeCrawl(cur *crawler.Snapshot, snap int) *FrozenSnapshot {
	fs := &FrozenSnapshot{Snapshot: snap}
	fs.Companies = make([]Company, 0, len(cur.Startups))
	for id := range cur.Startups {
		fs.Companies = append(fs.Companies, crawlCompany(cur, id))
	}
	sort.Slice(fs.Companies, func(i, j int) bool { return fs.Companies[i].ID < fs.Companies[j].ID })
	for _, u := range cur.Users {
		if inv, ok := investorRow(u.ID, u.Investments, len(u.FollowsStartups)); ok {
			fs.Investors = append(fs.Investors, inv)
		}
	}
	sort.Slice(fs.Investors, func(i, j int) bool { return fs.Investors[i].ID < fs.Investors[j].ID })
	return fs
}

func findCompany(fs *FrozenSnapshot, id string) (Company, bool) {
	i := sort.Search(len(fs.Companies), func(i int) bool { return fs.Companies[i].ID >= id })
	if i < len(fs.Companies) && fs.Companies[i].ID == id {
		return fs.Companies[i], true
	}
	return Company{}, false
}

func findInvestor(fs *FrozenSnapshot, id string) (Investor, bool) {
	i := sort.Search(len(fs.Investors), func(i int) bool { return fs.Investors[i].ID >= id })
	if i < len(fs.Investors) && fs.Investors[i].ID == id {
		return fs.Investors[i], true
	}
	return Investor{}, false
}

// DiffCrawl computes the delta turning the previous frozen snapshot
// into the current crawl round's merged world. When the raw previous
// round is available (prevRaw non-nil, same process), the crawler's
// RoundDiff restricts merging to entities whose raw records moved;
// otherwise every entity is re-merged in memory. Both paths emit the
// identical delta: an upsert only where the *merged* row differs.
func DiffCrawl(prev *FrozenSnapshot, prevRaw, cur *crawler.Snapshot, target int) (*SnapshotDelta, error) {
	if target != prev.Snapshot+1 {
		return nil, fmt.Errorf("core: diff crawl: target %d does not follow snapshot %d", target, prev.Snapshot)
	}
	sd := &SnapshotDelta{Base: prev.Snapshot, Target: target}
	if prevRaw == nil {
		next := mergeCrawl(cur, target)
		return DiffFrozen(prev, next), nil
	}
	rd := crawler.DiffRounds(prevRaw, cur)
	for _, id := range rd.StartupsUpserted {
		c := crawlCompany(cur, id)
		if old, ok := findCompany(prev, id); !ok || old != c {
			sd.CompanyUpserts = append(sd.CompanyUpserts, c)
		}
	}
	sd.CompanyDrops = append(sd.CompanyDrops, rd.StartupsRemoved...)
	for _, id := range rd.UsersUpserted {
		u := cur.Users[id]
		inv, ok := investorRow(u.ID, u.Investments, len(u.FollowsStartups))
		if !ok {
			// Still a user, no longer an investor.
			if _, had := findInvestor(prev, id); had {
				sd.InvestorDrops = append(sd.InvestorDrops, id)
			}
			continue
		}
		if old, had := findInvestor(prev, id); !had || !investorEqual(old, inv) {
			sd.InvestorUpserts = append(sd.InvestorUpserts, inv)
		}
	}
	for _, id := range rd.UsersRemoved {
		if _, had := findInvestor(prev, id); had {
			sd.InvestorDrops = append(sd.InvestorDrops, id)
		}
	}
	sort.Strings(sd.InvestorDrops)
	return sd, nil
}
