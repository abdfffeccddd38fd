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

// runFleet serves an existing store through -replicas read-only serve
// replicas behind a health-checked round-robin front on -addr. Each
// replica opens its own read-only handle and loads the store's latest
// frozen snapshot once; the front serves every serve route, retrying
// idempotent reads on the next replica so a dying replica never
// surfaces a 5xx while another is healthy. Cancelling ctx (SIGTERM)
// drains every replica and the front.
func runFleet(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := o.flagSet("fleet", "store", "addr", "drain-timeout")
	replicas := fs.Int("replicas", 2, "serving replicas behind the front")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := o.storeDir()
	if err != nil {
		return err
	}

	targets := make([]string, *replicas)
	servers := make([]*serve.Server, *replicas)
	for i := range servers {
		st, err := store.OpenReadOnly(dir)
		if err != nil {
			return err
		}
		srv := serve.New(&serve.StoreBackend{Store: st}, serve.Options{
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
