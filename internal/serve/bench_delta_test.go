package serve

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crowdscope/internal/core"
	"crowdscope/internal/store"
)

// benchSnapshot builds a synthetic frozen snapshot large enough that the
// hot-swap pause is dominated by real decode/apply work rather than
// fixed overheads. The base world is identical for every round (fixed
// seed); each round drifts ~1% of the companies' engagement counters,
// matching the between-crawl churn rate the delta path is built for.
func benchSnapshot(snap, nCompanies, nInvestors int) *core.FrozenSnapshot {
	rng := rand.New(rand.NewSource(99))
	fs := &core.FrozenSnapshot{Snapshot: snap}
	for i := 0; i < nCompanies; i++ {
		c := core.Company{
			ID:    fmt.Sprintf("co-%05d", i),
			Name:  fmt.Sprintf("Company %d", i),
			Likes: rng.Intn(10000),
		}
		if snap > 0 && i%100 == snap%100 {
			c.Likes += snap
		}
		fs.Companies = append(fs.Companies, c)
	}
	for i := 0; i < nInvestors; i++ {
		inv := core.Investor{ID: fmt.Sprintf("inv-%05d", i)}
		for j := rng.Intn(6) + 1; j > 0; j-- {
			inv.Investments = append(inv.Investments, fmt.Sprintf("co-%05d", rng.Intn(nCompanies)))
		}
		if snap > 0 && i%100 == snap%100 {
			inv.Follows = snap
		}
		fs.Investors = append(fs.Investors, inv)
	}
	fs.Graph = investorGraph(fs.Investors)
	return fs
}

// pinnedBackend serves the store but reports a capped LatestFrozen, so a
// benchmark can hold a server at an older snapshot and then release one
// newer round per timed swap.
type pinnedBackend struct {
	*StoreBackend
	pin int
}

func (p *pinnedBackend) LatestFrozen(ctx context.Context) (int, error) { return p.pin, nil }

// BenchmarkHotSwapPause measures the serving pause when a new crawl
// round lands: the Refresh duration between "new snapshot observed" and
// "new snapshot serving". The delta path applies frozen/delta-N onto the
// snapshot already in memory; the full path decodes the whole new
// artifact. Both end in the same swap, so the difference is pure refresh
// work.
func BenchmarkHotSwapPause(b *testing.B) {
	const nCompanies, nInvestors = 8000, 1600
	ctx := context.Background()
	build := func(b *testing.B, rounds int) *store.Store {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		prev := benchSnapshot(0, nCompanies, nInvestors)
		if err := core.CommitFrozen(ctx, st, prev); err != nil {
			b.Fatal(err)
		}
		for r := 1; r <= rounds; r++ {
			next := benchSnapshot(r, nCompanies, nInvestors)
			prev, err = core.CommitDelta(ctx, st, prev, core.DiffFrozen(prev, next))
			if err != nil {
				b.Fatal(err)
			}
		}
		return st
	}

	for _, mode := range []struct {
		name  string
		delta bool
	}{{"delta-refresh", true}, {"full-reload", false}} {
		b.Run(mode.name, func(b *testing.B) {
			st := build(b, b.N)
			backend := &pinnedBackend{StoreBackend: &StoreBackend{Store: st}}
			srv := New(backend, Options{Clock: time.Now, DeltaRefresh: mode.delta})
			if err := srv.Refresh(ctx); err != nil {
				b.Fatal(err) // untimed: initial full load of snapshot 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				backend.pin = i + 1
				if err := srv.Refresh(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			pauseMs := float64(b.Elapsed().Microseconds()) / float64(b.N) / 1000
			b.ReportMetric(pauseMs, "swap_pause_ms")
		})
	}
}
