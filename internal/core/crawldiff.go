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
// functions — pure functions of the raw records — so both build the
// same rows for the same round.

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

// DiffCrawl computes the delta turning the previous frozen snapshot
// into the current crawl round's merged world: it merges the whole
// round in memory and diffs it against prev (DiffFrozen), so an upsert
// is emitted only where the *merged* row differs. prevRaw is ignored —
// re-merging the round costs less than diffing it against the previous
// raw round, and callers need not keep that round alive — and stays in
// the signature only because the benchmark harness (benchmark/crawl.go)
// passes it.
func DiffCrawl(prev *FrozenSnapshot, prevRaw, cur *crawler.Snapshot, target int) (*SnapshotDelta, error) {
	if target != prev.Snapshot+1 {
		return nil, fmt.Errorf("core: diff crawl: target %d does not follow snapshot %d", target, prev.Snapshot)
	}
	return DiffFrozen(prev, mergeCrawl(cur, target)), nil
}
