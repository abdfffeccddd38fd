package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"crowdscope/internal/crawler"
	"crowdscope/internal/store"
)

// Partition is one claimable unit of crawl work: a deterministic slice
// of the seed listing plus the namespaces its worker writes under.
type Partition struct {
	Index int
	Seeds []string
}

// key is the partition's lease key.
func (p Partition) key() string { return fmt.Sprintf("part-%04d", p.Index) }

// checkpointNS is where the partition's crawl checkpoints live. Each
// partition gets its own namespace so workers never contend on a writer
// and the merger can load each partial independently.
func (p Partition) checkpointNS() string { return "fleet/checkpoint/" + p.key() }

// PartitionSeeds splits the seed listing into n hash partitions. The
// split is a pure function of the seed set: seeds are deduplicated,
// route by store.ShardFor over their ID, and each partition's slice
// comes out sorted — so every worker, and every rerun, derives the
// identical partitioning from the same listing regardless of input
// order. Empty partitions are kept (their crawl is trivially done) so
// partition indexes are stable as n varies.
func PartitionSeeds(seeds []string, n int) []Partition {
	if n < 1 {
		n = 1
	}
	parts := make([]Partition, n)
	for i := range parts {
		parts[i].Index = i
	}
	sorted := append([]string(nil), seeds...)
	sort.Strings(sorted)
	prev := ""
	for i, id := range sorted {
		if i > 0 && id == prev {
			continue
		}
		prev = id
		p := store.ShardFor(id, n)
		parts[p].Seeds = append(parts[p].Seeds, id)
	}
	return parts
}

// partitionDone reports whether the partition's crawl has a committed
// terminal checkpoint (the winning — highest-fence — record reached
// PhaseDone or beyond).
func partitionDone(ctx context.Context, st *store.Store, p Partition) (bool, error) {
	cp, ok, err := crawler.LoadCheckpoint(ctx, st, p.checkpointNS())
	if err != nil {
		return false, err
	}
	return ok && (cp.Phase == crawler.PhaseDone || cp.Phase == crawler.PhasePersisted), nil
}

// fetchers bounds parallel fetches inside each partition crawl: fleet
// parallelism comes from workers, not fetch fan-out.
const fetchers = 4

// Worker is one member of the crawl fleet. It sweeps the partition list,
// claims whatever is unleased and unfinished, and crawls each claim with
// the standard crawler in worker mode — checkpoint fence set to the
// lease token and the checkpoint guard renewing the lease, so the claim
// stays live exactly as long as the worker keeps making durable
// progress.
type Worker struct {
	// ID names this worker in lease records. Required, unique per worker.
	ID string
	// Client fetches from the served APIs. Required. Workers sharing one
	// process may share a client; its limiter then bounds fleet-wide
	// request rate like the paper's polite-crawl budget.
	Client *crawler.Client
	// Store receives checkpoints (shared by the whole fleet). Required.
	Store *store.Store
	// Leases coordinates partition claims. Required.
	Leases *Leases

	// Claimed and Completed count this worker's lease acquisitions and
	// finished partitions, for tests and statusz-style reporting.
	Claimed   int
	Completed int
}

// run sweeps parts until every partition is done or none is claimable
// by this worker. It returns nil when a full sweep found only finished
// or foreign-held partitions — the caller decides whether to re-sweep
// later (the crowdscope fleet driver loops until AllDone), which keeps retry
// pacing out of this package and under test control. The first crawl or
// lease error aborts the sweep; a killed worker simply never returns and
// its leases expire.
func (w *Worker) run(ctx context.Context, parts []Partition) error {
	if w.ID == "" {
		return errors.New("fleet: Worker.ID is empty")
	}
	for {
		progress := false
		for _, p := range parts {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("fleet: worker %s: %w", w.ID, err)
			}
			done, err := partitionDone(ctx, w.Store, p)
			if err != nil {
				return fmt.Errorf("fleet: worker %s: %w", w.ID, err)
			}
			if done {
				continue
			}
			lease, err := w.Leases.acquire(ctx, p.key(), w.ID)
			if errors.Is(err, ErrLeaseHeld) {
				continue
			}
			if err != nil {
				return fmt.Errorf("fleet: worker %s: %w", w.ID, err)
			}
			// The done-check and the acquire are not atomic: another
			// worker may have committed its terminal checkpoint and
			// released between them. Re-check under the claim — holding
			// the lease fences every other writer, so the answer is
			// stable — and hand the partition back instead of
			// re-crawling it.
			done, err = partitionDone(ctx, w.Store, p)
			if err != nil {
				return fmt.Errorf("fleet: worker %s: %w", w.ID, err)
			}
			if done {
				if err := w.Leases.release(ctx, lease); err != nil {
					return fmt.Errorf("fleet: worker %s: %w", w.ID, err)
				}
				continue
			}
			w.Claimed++
			if err := w.crawl(ctx, p, lease); err != nil {
				return fmt.Errorf("fleet: worker %s %s: %w", w.ID, p.key(), err)
			}
			w.Completed++
			progress = true
		}
		if !progress {
			return nil
		}
	}
}

// crawl runs the partition's crawl under the lease and releases it on
// success. Resume is always on: if a previous owner checkpointed partial
// progress, this owner continues from it instead of re-fetching.
func (w *Worker) crawl(ctx context.Context, p Partition, lease Lease) error {
	if len(p.Seeds) == 0 {
		// An empty partition must not reach the crawler: Seeds==nil is
		// the crawler's "fetch the whole listing yourself" mode. Record
		// it done directly with an empty fenced snapshot.
		cp := &crawler.Checkpoint{Phase: crawler.PhaseDone, Fence: lease.Token, Snap: &crawler.Snapshot{}}
		if err := crawler.SaveCheckpoint(ctx, w.Store, p.checkpointNS(), cp); err != nil {
			return err
		}
		return w.Leases.release(ctx, lease)
	}
	cr := &crawler.Crawler{
		Client:  w.Client,
		Workers: fetchers,
		Seeds:   p.Seeds,
		Checkpoint: &crawler.CheckpointConfig{
			Store:     w.Store,
			Namespace: p.checkpointNS(),
			Resume:    true,
			Fence:     lease.Token,
			Guard: func(ctx context.Context) error {
				return w.Leases.renew(ctx, &lease)
			},
		},
	}
	if _, err := cr.Run(ctx); err != nil {
		return err
	}
	return w.Leases.release(ctx, lease)
}

// RunWorkers drives the workers concurrently over the same partition
// list and waits for all of them. Per-worker failures are joined;
// a worker that found nothing claimable contributes nil.
func RunWorkers(ctx context.Context, workers []*Worker, parts []Partition) error {
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.run(ctx, parts)
		}(i, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// AllDone reports whether every partition has a terminal checkpoint.
func AllDone(ctx context.Context, st *store.Store, parts []Partition) (bool, error) {
	for _, p := range parts {
		done, err := partitionDone(ctx, st, p)
		if err != nil {
			return false, err
		}
		if !done {
			return false, nil
		}
	}
	return true, nil
}
