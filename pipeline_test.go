package crowdscope

import (
	"context"
	"runtime"
	"testing"
	"time"

	"crowdscope/internal/core"
	"crowdscope/internal/crawler"
	"crowdscope/internal/ecosystem"
)

func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	p, err := NewPipeline(PipelineConfig{
		Seed:     3,
		Scale:    0.008,
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	snap, err := p.Crawl(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.StartupsCrawled != len(p.World.Startups) {
		t.Fatalf("crawl incomplete: %d of %d startups", snap.Stats.StartupsCrawled, len(p.World.Startups))
	}
	a, err := p.Analyze(context.Background(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Companies) != len(p.World.Startups) {
		t.Fatalf("analysis companies = %d", len(a.Companies))
	}
	if len(a.Engagement) != 11 {
		t.Fatalf("engagement rows = %d", len(a.Engagement))
	}
	if a.Graph.Edges == 0 {
		t.Fatal("empty investor graph")
	}
	if a.Fig3.Median != 1 {
		t.Fatalf("median investments = %g", a.Fig3.Median)
	}
	if a.Communities.Assignment.NumCommunities() == 0 {
		t.Fatal("no communities detected")
	}

	// Longitudinal: evolve and snapshot again.
	p.AdvanceDays(10)
	if p.World.Day != 10 {
		t.Fatalf("day = %d", p.World.Day)
	}
	if _, err := p.Crawl(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	a1, err := p.Analyze(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	funded := func(cs []core.Company) int {
		n := 0
		for _, c := range cs {
			if c.Funded {
				n++
			}
		}
		return n
	}
	if funded(a1.Companies) < funded(a.Companies) {
		t.Fatalf("funded count fell over time: %d -> %d", funded(a.Companies), funded(a1.Companies))
	}
}

func TestNewPipelineDefaults(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{Seed: 1, Scale: 0.001, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.BaseURL() == "" {
		t.Fatal("no base URL")
	}
	if p.Config.Workers != 8 || len(p.Config.Tokens) != 3 {
		t.Fatalf("defaults not applied: %+v", p.Config)
	}
}

func TestNewPipelineFromWorldCustomConfig(t *testing.T) {
	cfg := ecosystem.NewConfig(2, 0.001)
	cfg.SuccessNone = 0.5 // unrealistic on purpose
	w, err := ecosystem.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipelineFromWorld(w, PipelineConfig{Seed: 2, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.World != w {
		t.Fatal("world not adopted")
	}
	if p.Config.Scale != 0.001 {
		t.Fatalf("scale not mirrored: %g", p.Config.Scale)
	}
}

// TestPipelineKeepsNoCrawlAlive: a round's delta needs only the round's
// own crawl and the previous frozen snapshot, so once the caller drops
// the snapshot Crawl returned, the pipeline must not keep it reachable.
func TestPipelineKeepsNoCrawlAlive(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{Seed: 5, Scale: 0.002, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	snap, err := p.Crawl(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(snap, func(*crawler.Snapshot) { close(freed) })
	snap = nil
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(p)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(p)
	t.Fatal("the crawl snapshot is still reachable after Crawl returned and the caller dropped it")
}
