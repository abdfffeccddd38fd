package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
)

// rawRound generates a random raw crawl snapshot: startups with a mix of
// augment profiles, users with and without investments.
func rawRound(rng *rand.Rand, n int) *crawler.Snapshot {
	cur := &crawler.Snapshot{
		Startups:   map[string]*ecosystem.Startup{},
		Users:      map[string]*ecosystem.User{},
		CrunchBase: map[string]*ecosystem.CrunchBaseProfile{},
		Facebook:   map[string]*ecosystem.FacebookProfile{},
		Twitter:    map[string]*ecosystem.TwitterProfile{},
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s-%04d", i)
		cur.Startups[id] = &ecosystem.Startup{
			ID:           id,
			Name:         fmt.Sprintf("Startup %d", i),
			Raising:      rng.Intn(3) == 0,
			HasDemoVideo: rng.Intn(4) == 0,
		}
		if rng.Intn(2) == 0 {
			cur.Startups[id].TwitterURL = "https://tw/" + id
			cur.Twitter[id] = &ecosystem.TwitterProfile{
				Username:       id,
				FollowersCount: rng.Intn(5000),
				StatusesCount:  rng.Intn(2000),
				FriendsCount:   rng.Intn(300),
			}
		}
		if rng.Intn(3) == 0 {
			cur.Facebook[id] = &ecosystem.FacebookProfile{Likes: rng.Intn(9000)}
		}
		if rng.Intn(3) == 0 {
			cur.CrunchBase[id] = &ecosystem.CrunchBaseProfile{
				Rounds: []ecosystem.FundingRound{{AmountUSD: int64(rng.Intn(1e6))}},
			}
		}
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("u-%04d", i)
		u := &ecosystem.User{ID: id}
		for j := rng.Intn(4); j > 0; j-- {
			u.Investments = append(u.Investments, fmt.Sprintf("s-%04d", rng.Intn(n)))
		}
		for j := rng.Intn(3); j > 0; j-- {
			u.FollowsStartups = append(u.FollowsStartups, fmt.Sprintf("s-%04d", rng.Intn(n)))
		}
		cur.Users[id] = u
	}
	return cur
}

// copyRound deep-copies a raw snapshot so a mutation round can start
// from the previous one.
func copyRound(prev *crawler.Snapshot) *crawler.Snapshot {
	cur := &crawler.Snapshot{
		Startups:   map[string]*ecosystem.Startup{},
		Users:      map[string]*ecosystem.User{},
		CrunchBase: map[string]*ecosystem.CrunchBaseProfile{},
		Facebook:   map[string]*ecosystem.FacebookProfile{},
		Twitter:    map[string]*ecosystem.TwitterProfile{},
	}
	for id, s := range prev.Startups {
		c := *s
		cur.Startups[id] = &c
	}
	for id, u := range prev.Users {
		c := *u
		c.Investments = append([]string(nil), u.Investments...)
		c.FollowsStartups = append([]string(nil), u.FollowsStartups...)
		c.FollowsUsers = append([]string(nil), u.FollowsUsers...)
		cur.Users[id] = &c
	}
	for id, p := range prev.CrunchBase {
		c := *p
		c.Rounds = append([]ecosystem.FundingRound(nil), p.Rounds...)
		cur.CrunchBase[id] = &c
	}
	for id, p := range prev.Facebook {
		c := *p
		cur.Facebook[id] = &c
	}
	for id, p := range prev.Twitter {
		c := *p
		cur.Twitter[id] = &c
	}
	return cur
}

// mutateRound applies a representative mix of raw changes: merged-visible
// edits, raw-changed but merged-unchanged records, users losing investor
// status, and entity churn in both directions.
func mutateRound(rng *rand.Rand, prev *crawler.Snapshot, round int) *crawler.Snapshot {
	cur := copyRound(prev)
	i := 0
	for id, s := range cur.Startups {
		switch i % 7 {
		case 0:
			s.Raising = !s.Raising // merged-visible change
		case 1:
			// Raw-visible only: FounderIDs never reach the merged row, so
			// the delta must not carry an upsert for it.
			s.FounderIDs = append(s.FounderIDs, fmt.Sprintf("u-%04d", rng.Intn(50)))
		case 2:
			if tw := cur.Twitter[id]; tw != nil {
				tw.FollowersCount += 5 // augment-visible change
			}
		case 3:
			if tw := cur.Twitter[id]; tw != nil {
				tw.FriendsCount += 1 // augment raw-only change (not merged)
			}
		case 4:
			if i%21 == 4 {
				delete(cur.Startups, id)
				delete(cur.Twitter, id)
				delete(cur.Facebook, id)
				delete(cur.CrunchBase, id)
			}
		}
		i++
	}
	nid := fmt.Sprintf("s-new-%d-%02d", round, rng.Intn(100))
	cur.Startups[nid] = &ecosystem.Startup{ID: nid, Name: "New " + nid, Raising: true}

	i = 0
	for id, u := range cur.Users {
		switch i % 6 {
		case 0:
			u.Investments = append(u.Investments, nid)
		case 1:
			u.Investments = nil // investor, if one, becomes a bystander
		case 2:
			// Raw-visible only: FollowsUsers is not part of the merged row.
			u.FollowsUsers = append(u.FollowsUsers, "u-0000")
		case 3:
			if i%18 == 3 {
				delete(cur.Users, id)
			}
		}
		i++
	}
	uid := fmt.Sprintf("u-new-%d-%02d", round, rng.Intn(100))
	cur.Users[uid] = &ecosystem.User{ID: uid, Investments: []string{nid, nid}}
	return cur
}

// TestDiffCrawlAppliesToMergedRound: over mutated rounds, applying each
// round's delta to the previous snapshot must land exactly on the merged
// current round.
func TestDiffCrawlAppliesToMergedRound(t *testing.T) {
	for _, seed := range []int64{7, 13, 29} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			raw := rawRound(rng, 60)
			fs := mergeCrawl(raw, 0)
			for round := 1; round <= 3; round++ {
				next := mutateRound(rng, raw, round)
				sd, err := DiffCrawl(fs, nil, next, round)
				if err != nil {
					t.Fatal(err)
				}
				if deltaEmpty(sd) {
					t.Fatalf("round %d: mutation produced an empty delta; test is vacuous", round)
				}

				applied, err := ApplyDelta(fs, sd)
				if err != nil {
					t.Fatal(err)
				}
				want := mergeCrawl(next, round)
				if !reflect.DeepEqual(applied.Companies, want.Companies) {
					t.Fatalf("round %d: applied companies diverge from merged crawl", round)
				}
				if len(applied.Investors) != len(want.Investors) {
					t.Fatalf("round %d: investor count %d, want %d", round, len(applied.Investors), len(want.Investors))
				}
				for i := range applied.Investors {
					if !investorEqual(applied.Investors[i], want.Investors[i]) {
						t.Fatalf("round %d: investor %d diverges: %+v vs %+v",
							round, i, applied.Investors[i], want.Investors[i])
					}
				}
				raw, fs = next, applied
			}
		})
	}
}

// TestDiffCrawlSuppressesMergedNoops: a raw change invisible to the
// merged schema must not emit an upsert.
func TestDiffCrawlSuppressesMergedNoops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	raw := rawRound(rng, 20)
	fs := mergeCrawl(raw, 0)
	next := copyRound(raw)
	for _, s := range next.Startups {
		s.FounderIDs = append(s.FounderIDs, "u-0001")
	}
	for _, u := range next.Users {
		u.FollowsUsers = append(u.FollowsUsers, "u-0001")
	}
	sd, err := DiffCrawl(fs, nil, next, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !deltaEmpty(sd) {
		t.Fatalf("raw-only changes leaked into the delta: %+v", sd)
	}
}

func TestDiffCrawlRejectsBadTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	raw := rawRound(rng, 5)
	fs := mergeCrawl(raw, 2)
	if _, err := DiffCrawl(fs, nil, raw, 4); err == nil {
		t.Fatal("target skipping a snapshot accepted")
	}
}
