package core

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
	"crowdscope/internal/store"
)

func TestLoadCompanyFollowerCounts(t *testing.T) {
	counts, err := LoadCompanyFollowerCounts(context.Background(), fixStore, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(fixWorld.Startups) {
		t.Fatalf("counted %d companies, world has %d (every startup has >=1 follower)",
			len(counts), len(fixWorld.Startups))
	}
	// Cross-check one company against ground truth.
	want := map[string]int{}
	for _, u := range fixWorld.Users {
		for _, sid := range u.FollowsStartups {
			want[sid]++
		}
	}
	for id, n := range counts {
		if want[id] != n {
			t.Fatalf("follower count for %s = %d, truth %d", id, n, want[id])
		}
	}
}

func TestBuildFeaturesAndPrediction(t *testing.T) {
	companies, err := LoadCompanies(context.Background(), fixStore, -1)
	if err != nil {
		t.Fatal(err)
	}
	investors, err := LoadInvestors(context.Background(), fixStore, -1)
	if err != nil {
		t.Fatal(err)
	}
	followers, err := LoadCompanyFollowerCounts(context.Background(), fixStore, -1)
	if err != nil {
		t.Fatal(err)
	}
	d := BuildFeatures(companies, investors, followers)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.X) != len(companies) {
		t.Fatalf("feature rows = %d", len(d.X))
	}
	res, err := RunPrediction(d, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Success is driven by social engagement by construction, so the
	// predictor must do much better than chance.
	if res.TestAUC < 0.75 {
		t.Errorf("test AUC = %.3f, want >= 0.75", res.TestAUC)
	}
	if len(res.Selected) == 0 {
		t.Error("forward selection chose nothing")
	}
	// The selected features must include a social signal, not only graph
	// degrees.
	social := map[string]bool{
		"has_facebook": true, "has_twitter": true, "has_video": true,
		"log_likes": true, "log_tweets": true, "log_followers": true,
	}
	found := false
	for _, name := range res.Selected {
		if social[name] {
			found = true
		}
	}
	if !found {
		t.Errorf("no social feature selected: %v", res.Selected)
	}
	if res.TopWeight == "" {
		t.Error("no top-weight feature reported")
	}
}

// longitudinalStore crawls a dedicated world twice with evolution in
// between, into a fresh store, and freezes both rounds. It owns its
// world so evolving it cannot disturb the shared fixture.
func longitudinalStore(t *testing.T) (*store.Store, *ecosystem.World) {
	t.Helper()
	w, err := ecosystem.Generate(ecosystem.NewConfig(77, 0.015))
	if err != nil {
		t.Fatal(err)
	}
	srv := apiserver.New(w, apiserver.Options{Tokens: []string{"t"}, TwitterLimit: 1 << 30})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := crawler.NewClient(ts.URL, []string{"t"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cr := &crawler.Crawler{Client: client, Workers: 8}
	snap, err := cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := crawler.Persist(context.Background(), st, snap, 0); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 45; d++ {
		w.Evolve()
	}
	srv.Reload()
	snap, err = cr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := crawler.Persist(context.Background(), st, snap, 1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := BuildFrozen(context.Background(), st, round); err != nil {
			t.Fatal(err)
		}
	}
	return st, w
}

func TestCausalityAndDynamics(t *testing.T) {
	st, w := longitudinalStore(t)

	res, err := RunCausality(context.Background(), st, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.PanelSize == 0 {
		t.Fatal("empty causality panel")
	}
	if res.Converted == 0 {
		t.Skip("no conversions in 45 evolved days at this seed")
	}
	// The simulator plants the effect: social companies convert more and
	// also gain engagement faster, so high-delta conversion should not be
	// below low-delta.
	if res.ConversionHighDelta < res.ConversionLowDelta {
		t.Errorf("high-delta conversion %.4f below low-delta %.4f",
			res.ConversionHighDelta, res.ConversionLowDelta)
	}
	if res.P < 0 || res.P > 1 {
		t.Errorf("p-value = %g", res.P)
	}

	k := w.Cfg.NumCommunities()
	dyn, err := RunDynamics(context.Background(), st, 0, 1, 4, k, 99)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.PrevCommunities == 0 || dyn.CurCommunities == 0 {
		t.Fatalf("communities: prev=%d cur=%d", dyn.PrevCommunities, dyn.CurCommunities)
	}
	// Community structure is mostly stable over 45 days: most previous
	// communities should find a descendant.
	if len(dyn.Transition.Matches) == 0 {
		t.Error("no community matched across snapshots")
	}
	total := len(dyn.Transition.Matches) + len(dyn.Transition.Dissolved)
	if total != dyn.PrevCommunities {
		t.Errorf("accounting broken: %d matches + %d dissolved != %d prev",
			len(dyn.Transition.Matches), len(dyn.Transition.Dissolved), dyn.PrevCommunities)
	}
}

func TestRunCausalityPanelTooSmall(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := newFrozen(0, []Company{{ID: "s-1"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := CommitFrozen(ctx, st, fs); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCausality(ctx, st, 0, 0); err == nil || !strings.Contains(err.Error(), "panel too small") {
		t.Fatalf("RunCausality = %v, want a panel-too-small error", err)
	}
}

func TestEngagementSignificance(t *testing.T) {
	companies, err := LoadCompanies(context.Background(), fixStore, -1)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := EngagementTable(companies)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := EngagementSignificance(companies, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != len(rows)-1 {
		t.Fatalf("significance rows = %d, want %d", len(sig), len(rows)-1)
	}
	byLabel := map[string]Significance{}
	for _, s := range sig {
		if s.P < 0 || s.P > 1 {
			t.Fatalf("p out of range: %+v", s)
		}
		byLabel[s.Label] = s
	}
	// The headline categories are overwhelmingly significant by
	// construction (0.4% vs >10% on thousands of companies).
	for _, label := range []string{"Facebook", "Twitter", "Facebook and Twitter"} {
		if s := byLabel[label]; s.P > 1e-6 {
			t.Errorf("%s p = %g, expected overwhelming significance", label, s.P)
		}
	}
}

func TestFig3PowerLawAlpha(t *testing.T) {
	investors, _ := LoadInvestors(context.Background(), fixStore, -1)
	res := RunFig3(investors)
	if res.PowerLawAlpha < 1.2 || res.PowerLawAlpha > 4 {
		t.Errorf("power-law alpha = %.2f, want a heavy-tail exponent", res.PowerLawAlpha)
	}
}
