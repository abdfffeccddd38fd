package crowdscope

import (
	"context"
	"encoding/json"
	"testing"

	"crowdscope/internal/core"
)

// TestFrozenAnalysisEquivalence pins the facade to the library: what
// Pipeline.Analyze reports for a crawled snapshot serializes
// byte-identically to core.Analyze run, unbudgeted, over the frozen
// artifact the crawl committed.
func TestFrozenAnalysisEquivalence(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(PipelineConfig{
		Seed:     7,
		Scale:    0.005,
		StoreDir: t.TempDir(),
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Crawl(ctx, 0); err != nil {
		t.Fatal(err)
	}
	// The crawl's snapshot-builder stage must have emitted the artifact.
	if !core.HasFrozen(p.Store, 0) {
		t.Fatal("crawl did not emit a frozen snapshot")
	}

	got, err := p.Analyze(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.LoadFrozen(p.Store, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Analyze(ctx, fs, 4, p.World.Cfg.NumCommunities(), 1, core.Budget{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if want.CommunitiesSampled {
		t.Fatal("unbudgeted analysis reported a sampled run")
	}
	if got.Communities.Assignment.NumCommunities() == 0 {
		t.Fatal("equivalence vacuous: no communities detected")
	}
	for name, pair := range map[string][2]any{
		"companies":   {got.Companies, fs.Companies},
		"investors":   {got.Investors, fs.Investors},
		"engagement":  {got.Engagement, want.Engagement},
		"thresholds":  {got.Thresholds, want.Thresholds},
		"graph":       {got.Graph, want.Graph},
		"fig3":        {got.Fig3, want.Fig3},
		"communities": {got.Communities.Assignment, want.Communities.Assignment},
	} {
		a, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: Pipeline.Analyze and core.Analyze differ (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}
