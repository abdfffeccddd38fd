package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"crowdscope/internal/store"
)

// followerDigest renders a follower-count map as its size, total and
// the sha256 of its sorted "id=count" lines.
func followerDigest(m map[string]int) string {
	ids := make([]string, 0, len(m))
	sum := 0
	for id, n := range m {
		ids = append(ids, id)
		sum += n
	}
	slices.Sort(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s=%d\n", id, m[id])
	}
	return fmt.Sprintf("len=%d sum=%d sha=%x", len(m), sum, h.Sum(nil))
}

// TestEngagementMatchesRecordedValues pins the Figure 6 table and the
// AngelList follower counts to the values the dataflow engine produced
// before the plain loops replaced it, on the package fixture (a K=1
// crawl) and on a K=4 generated world. Percentages compare with ==.
func TestEngagementMatchesRecordedValues(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name      string
		st        func(t *testing.T) *store.Store
		th        EngagementThresholds
		rows      []EngagementRow
		followers string
	}{
		{
			name: "fixture",
			st:   func(*testing.T) *store.Store { return fixStore },
			th:   EngagementThresholds{Likes: 673, Tweets: 343, Followers: 327},
			rows: []EngagementRow{
				{"No social media presence", 13319, 89.50339358914052, 0.41294391470831143},
				{"Facebook", 801, 5.382702775351119, 12.60923845193508},
				{"Twitter", 1471, 9.885088367717223, 11.352821210061183},
				{"Facebook and Twitter", 710, 4.771184732208857, 13.380281690140844},
				{"Presence of demo video", 726, 4.878704388145958, 12.8099173553719},
				{"No demo video", 14155, 95.12129561185404, 0.9537265983751325},
				{"Facebook (>673 likes)", 400, 2.687991398427525, 15.75},
				{"Twitter (>343 tweets)", 734, 4.932464216114509, 13.896457765667575},
				{"Twitter (>327 followers)", 735, 4.9391841946105774, 13.60544217687075},
				{"Facebook (>673 likes) and Twitter (>327 followers)", 247, 1.6598346885289965, 18.62348178137652},
				{"Facebook (>673 likes) and Twitter (>343 tweets)", 252, 1.693434581009341, 18.253968253968253},
			},
			followers: "len=14881 sum=471746 sha=8cc981ddb48e055e5b350754875821b69442d252edc490c99ac18cc2fcf150cb",
		},
		{
			name: "generated K=4",
			st:   func(t *testing.T) *store.Store { return generatedStore(t, 0.01, 4) },
			th:   EngagementThresholds{Likes: 584, Tweets: 329, Followers: 343},
			rows: []EngagementRow{
				{"No social media presence", 6688, 89.89247311827957, 0.388755980861244},
				{"Facebook", 385, 5.174731182795699, 10.649350649350648},
				{"Twitter", 711, 9.556451612903226, 10.68917018284107},
				{"Facebook and Twitter", 344, 4.623655913978494, 10.465116279069768},
				{"Presence of demo video", 362, 4.865591397849462, 13.259668508287293},
				{"No demo video", 7078, 95.13440860215053, 0.8335688047471037},
				{"Facebook (>584 likes)", 192, 2.5806451612903225, 12.5},
				{"Twitter (>329 tweets)", 355, 4.771505376344086, 14.647887323943662},
				{"Twitter (>343 followers)", 353, 4.744623655913979, 15.01416430594901},
				{"Facebook (>584 likes) and Twitter (>343 followers)", 107, 1.4381720430107527, 15.887850467289718},
				{"Facebook (>584 likes) and Twitter (>329 tweets)", 115, 1.5456989247311828, 15.65217391304348},
			},
			followers: "len=7440 sum=236018 sha=1f6a660d46948f8e63c897dea2e1eaf70fc3579f78246512bb35eebbb07e8bd8",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := c.st(t)
			companies, err := LoadCompanies(ctx, st, -1)
			if err != nil {
				t.Fatal(err)
			}
			rows, th, err := EngagementTable(companies)
			if err != nil {
				t.Fatal(err)
			}
			if th != c.th {
				t.Errorf("thresholds = %+v, recorded %+v", th, c.th)
			}
			if !slices.Equal(rows, c.rows) {
				t.Errorf("rows differ from the recorded table:\n got %v\nwant %v", rows, c.rows)
			}
			counts, err := LoadCompanyFollowerCounts(ctx, st, -1)
			if err != nil {
				t.Fatal(err)
			}
			if got := followerDigest(counts); got != c.followers {
				t.Errorf("follower counts %s, recorded %s", got, c.followers)
			}
		})
	}
}
