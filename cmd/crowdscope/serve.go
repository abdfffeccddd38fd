package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"crowdscope"
	"crowdscope/internal/crawler"
	"crowdscope/internal/fleet"
	"crowdscope/internal/fleet/front"
	"crowdscope/internal/serve"
	"crowdscope/internal/store"
)

// runServe exposes a crawled store over HTTP through the resilient
// serving layer: admission control with load shedding, per-route
// deadlines propagated into store reads, a circuit breaker around
// snapshot/store access, and graceful degradation to the last-good
// frozen snapshot when the store misbehaves.
//
// Routes: /healthz, /readyz, /statusz, /api/query?q=STMT,
// /api/snapshot/{companies,investors,stats}. New frozen/snap-N
// artifacts are hot-reloaded on the -refresh interval by applying the
// crawl's frozen/delta-N artifacts onto the served snapshot in memory
// (any delta failure falls back to a full reload). Cancelling ctx
// (SIGTERM) drains: readyz flips to 503, in-flight requests finish, then
// the listener closes.
func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := o.flagSet("serve", "store", "addr", "drain-timeout")
	refresh := fs.Duration("refresh", 5*time.Second, "poll interval for new frozen snapshots")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := o.storeDir()
	if err != nil {
		return err
	}

	// Read-only: the server never writes, and a writing Open would sweep
	// a concurrently-crawling process's in-flight commit files as crash
	// debris. This is what makes "crawl into the store being served"
	// safe.
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		return err
	}
	srv := serve.New(&serve.StoreBackend{Store: st}, serve.Options{
		DeltaRefresh: true,
		Logf:         log.Printf,
		Clock:        time.Now,
	})
	// Load the first snapshot; an empty or faulty store is not fatal —
	// the server starts unready and keeps retrying on the ticker.
	if err := srv.Refresh(ctx); err != nil {
		log.Printf("initial snapshot load failed (serving unready until one lands): %v", err)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	refreshed := make(chan struct{})
	go func() {
		defer close(refreshed)
		t := time.NewTicker(*refresh)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := srv.Refresh(ctx); err != nil {
					log.Printf("refresh: %v", err)
				}
			}
		}
	}()
	fmt.Fprintf(stdout, "serving %s on %s\n", dir, ln.Addr())
	err = serveUntilDone(ctx, ln, srv.Handler(), o.drainTimeout, srv.BeginDrain)
	cancel()
	<-refreshed
	return err
}

// maxWaves is how many worker waves fleet runs before giving up the
// crawl.
const maxWaves = 10

// runFleet runs the distributed collection + replicated serving demo in
// one process tree: it generates a world, serves it through the
// simulated APIs, partitions the raising listing (two partitions per
// worker) across -crawl-workers lease-coordinated crawl workers, merges
// their partial snapshots into one frozen artifact (byte-identical to a
// single-worker crawl), brings up -replicas read-only serving replicas
// over the merged store, and fronts them with a health-checked
// round-robin proxy on -addr.
//
// Workers claim seed partitions through fencing-token leases persisted
// in the store's fleet/leases namespace; a crashed worker's lease
// expires (fleet.DefaultLeaseTTL) and a surviving worker resumes its
// partition from the fenced checkpoints. The front serves every serve
// route, retrying idempotent reads on the next replica so a dying
// replica never surfaces a 5xx while another is healthy.
func runFleet(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := o.flagSet("fleet", "seed", "scale", "store", "addr", "fault-rate", "fault-seed", "drain-timeout")
	crawlWorkers := fs.Int("crawl-workers", 3, "fleet crawl workers")
	replicas := fs.Int("replicas", 2, "serving replicas behind the front")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := o.storeDir()
	if err != nil {
		return err
	}

	// The world, the simulated social APIs and their tokens come from the
	// constructor crawl uses, so the fleet crawls the same API server.
	p, err := crowdscope.NewPipeline(crowdscope.PipelineConfig{
		Seed:     o.seed,
		Scale:    o.scale,
		StoreDir: dir,
		Faults:   faultConfig(o.faultRate, o.faultSeed),
	})
	if err != nil {
		return err
	}
	defer p.Close()
	apiURL, tokens, st := p.BaseURL(), p.Config.Tokens, p.Store
	fmt.Fprintf(stdout, "simulated APIs on %s\n", apiURL)

	coord, err := crawler.NewClient(apiURL, tokens)
	if err != nil {
		return err
	}
	seeds, err := coord.RaisingStartups(ctx)
	if err != nil {
		return err
	}
	parts := fleet.PartitionSeeds(seeds, 2*(*crawlWorkers))
	fmt.Fprintf(stdout, "fleet: %d seeds in %d partitions, %d workers\n", len(seeds), len(parts), *crawlWorkers)

	leases := &fleet.Leases{Store: st, Clock: time.Now}
	for wave := 0; ; wave++ {
		done, err := fleet.AllDone(ctx, st, parts)
		if err != nil {
			return err
		}
		if done {
			break
		}
		if wave >= maxWaves {
			return fmt.Errorf("crawl incomplete after %d worker waves", wave)
		}
		workers := make([]*fleet.Worker, *crawlWorkers)
		for i := range workers {
			client, err := crawler.NewClient(apiURL, tokens)
			if err != nil {
				return err
			}
			// A worker sleeping past its lease TTL would be fenced out
			// anyway; fail the partition attempt instead and let the
			// next wave resume from its checkpoints.
			client.MaxSleepPerCall = fleet.DefaultLeaseTTL
			workers[i] = &fleet.Worker{
				ID:     fmt.Sprintf("worker-%d-wave-%d", i, wave),
				Client: client,
				Store:  st,
				Leases: leases,
			}
		}
		if err := fleet.RunWorkers(ctx, workers, parts); err != nil {
			if ctx.Err() != nil {
				return err
			}
			// Worker failures (fault budgets, fenced leases) are not
			// fatal to the fleet: surviving checkpoints carry the next
			// wave forward once stale leases expire.
			log.Printf("wave %d: %v", wave, err)
			sleepCtx(ctx, fleet.DefaultLeaseTTL)
		}
		for _, w := range workers {
			fmt.Fprintf(stdout, "  %s: claimed %d, completed %d partitions\n", w.ID, w.Claimed, w.Completed)
		}
	}

	merged, err := fleet.MergePartitions(ctx, st, parts)
	if err != nil {
		return err
	}
	snap, err := fleet.CommitMerged(ctx, st, merged, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "merged %d startups, %d users; frozen snapshot %d committed\n",
		len(merged.Startups), len(merged.Users), snap)

	// Read side: replicas over read-only handles of the merged store, a
	// health-checked round-robin front on -addr.
	targets := make([]string, *replicas)
	servers := make([]*serve.Server, *replicas)
	for i := range servers {
		rst, err := store.OpenReadOnly(dir)
		if err != nil {
			return err
		}
		srv := serve.New(&serve.StoreBackend{Store: rst}, serve.Options{
			Logf:      log.Printf,
			Clock:     time.Now,
			ReplicaID: fmt.Sprintf("replica-%d", i),
		})
		if err := srv.Refresh(ctx); err != nil {
			return err
		}
		url, closeFn, err := serveLoopback(srv.Handler())
		if err != nil {
			return err
		}
		defer closeFn()
		targets[i] = url
		servers[i] = srv
		fmt.Fprintf(stdout, "replica-%d serving on %s\n", i, url)
	}
	fr, err := front.New(targets, front.Options{Logf: log.Printf})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		fr.Run(ctx)
	}()
	fmt.Fprintf(stdout, "front serving %d replicas on %s\n", *replicas, ln.Addr())
	err = serveUntilDone(ctx, ln, fr.Handler(), o.drainTimeout, func() {
		for _, srv := range servers {
			srv.BeginDrain()
		}
	})
	cancel()
	<-probed
	return err
}

// serveLoopback serves h on an ephemeral loopback port and returns its
// base URL plus a closer.
func serveLoopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("loopback server: %v", err)
		}
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// sleepCtx waits d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
