package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"crowdscope/internal/fleet/front"
	"crowdscope/internal/serve"
	"crowdscope/internal/store"
)

// runServe exposes a crawled store over HTTP through -replicas replicas
// of the resilient serving layer: admission control with load shedding,
// per-route deadlines propagated into store reads, a circuit breaker
// around snapshot/store access, and graceful degradation to the
// last-good frozen snapshot when the store misbehaves.
//
// Routes: /healthz, /readyz, /statusz, /api/query?q=STMT,
// /api/snapshot/{companies,investors,stats}. Every replica hot-reloads
// new frozen/snap-N artifacts on the -refresh interval by applying the
// crawl's frozen/delta-N artifacts onto its served snapshot in memory
// (any delta failure falls back to a full reload). One replica serves
// -addr itself; several serve loopback ports behind a health-checked
// round-robin front on -addr, which retries idempotent reads on the
// next replica so a dying replica never surfaces a 5xx while another is
// healthy. Cancelling ctx (SIGTERM) drains: readyz flips to 503 on
// every replica, in-flight requests finish, then the listener closes.
func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := o.flagSet("serve", "store", "addr", "drain-timeout")
	refresh := fs.Duration("refresh", 5*time.Second, "poll interval for new frozen snapshots")
	replicas := fs.Int("replicas", 1, "serving replicas; more than one are served behind a failover front")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := o.storeDir()
	if err != nil {
		return err
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1, got %d", *replicas)
	}

	servers := make([]*serve.Server, *replicas)
	for i := range servers {
		// Read-only: a replica never writes, and a writing Open would
		// sweep a concurrently-crawling process's in-flight commit files
		// as crash debris. This is what makes "crawl into the store being
		// served" safe.
		st, err := store.OpenReadOnly(dir)
		if err != nil {
			return err
		}
		opts := serve.Options{DeltaRefresh: true, Logf: log.Printf, Clock: time.Now}
		if *replicas > 1 {
			opts.ReplicaID = fmt.Sprintf("replica-%d", i)
		}
		servers[i] = serve.New(&serve.StoreBackend{Store: st}, opts)
		// An empty or faulty store is not fatal: the replica starts
		// unready and keeps retrying on the ticker.
		if err := servers[i].Refresh(ctx); err != nil {
			log.Printf("replica-%d: initial snapshot load failed (unready until one lands): %v", i, err)
		}
	}
	h := servers[0].Handler()
	var fr *front.Front
	if *replicas > 1 {
		targets := make([]string, len(servers))
		for i, srv := range servers {
			url, closeFn, err := serveLoopback(srv.Handler())
			if err != nil {
				return err
			}
			defer closeFn()
			targets[i] = url
			fmt.Fprintf(stdout, "replica-%d serving on %s\n", i, url)
		}
		if fr, err = front.New(targets, front.Options{Logf: log.Printf}); err != nil {
			return err
		}
		h = fr.Handler()
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		refreshEvery(ctx, *refresh, servers)
	}()
	if fr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fr.Run(ctx)
		}()
	}
	fmt.Fprintf(stdout, "serving %s on %s\n", dir, ln.Addr())
	err = serveUntilDone(ctx, ln, h, o.drainTimeout, func() {
		for _, srv := range servers {
			srv.BeginDrain()
		}
	})
	cancel()
	wg.Wait()
	return err
}

// refreshEvery refreshes every replica on each tick of interval until
// ctx is done.
func refreshEvery(ctx context.Context, interval time.Duration, servers []*serve.Server) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for i, srv := range servers {
				if err := srv.Refresh(ctx); err != nil {
					log.Printf("replica-%d: refresh: %v", i, err)
				}
			}
		}
	}
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
