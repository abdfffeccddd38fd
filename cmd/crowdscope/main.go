// Command crowdscope is the one entry point to the collect → store →
// analyse → serve system. Each stage is a subcommand:
//
//	crowdscope gen     -seed 42 -scale 0.02 [-out DIR]
//	crowdscope crawl   -store DIR [-snapshots 3 -days 7] [-fault-rate 0.05 -fault-seed 7] [-resume]
//	crowdscope analyze -seed 42 -scale 0.01 [-exp fig6] [-out DIR] [-layout band]
//	crowdscope query   -store DIR [-explain] [-rebuild-snapshot] [STATEMENT]
//	crowdscope serve   -store DIR -addr :8080 [-refresh 5s]
//	crowdscope fleet   -store DIR -addr :8080 [-crawl-workers 3 -replicas 2]
//	crowdscope scale   -scale 1 -shards 16 [-store DIR]
//
// A flag two subcommands share (-seed, -scale, -store, -out, -workers,
// -fault-rate, -fault-seed, -addr, -drain-timeout) is declared once, in
// options.flagSet, and means the same thing with the same default
// wherever it appears. "crowdscope <command> -h" lists a command's flags;
// testdata/flags.golden holds all of them. Flags are the experiment's
// inputs and deployment settings only: serving bounds, breaker
// thresholds, fleet partitioning, lease TTL and analysis budget each
// have one value, a constant in their package.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"crowdscope/internal/apiserver"
)

const usage = `usage: crowdscope <command> [flags]

commands:
  gen      generate a synthetic world and print its ground truth
  crawl    crawl the simulated APIs into a store, optionally longitudinally
  analyze  print every table and figure of the paper over a fresh crawl
  query    run SQL-like statements against a store
  serve    serve a store over HTTP
  fleet    lease-coordinated crawl workers, merged snapshot, replicated serving
  scale    the out-of-core batch pipeline with per-stage wall-clock and RSS

Run "crowdscope <command> -h" for its flags.`

// commands maps each subcommand to its entry point. Every entry parses
// its own flags from args, writes its report to stdout and returns its
// errors.
var commands = map[string]func(ctx context.Context, args []string, stdout io.Writer) error{
	"gen":     runGen,
	"crawl":   runCrawl,
	"analyze": runAnalyze,
	"query":   runQuery,
	"serve":   runServe,
	"fleet":   runFleet,
	"scale":   runScale,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("crowdscope: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The first signal cancels ctx; stop restores the default handling,
	// so a second one kills a stage that does not watch ctx.
	go func() {
		<-ctx.Done()
		stop()
	}()
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run dispatches args[0] to its subcommand.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return errors.New(usage)
	}
	cmd, ok := commands[args[0]]
	if !ok {
		return fmt.Errorf("unknown command %q\n%s", args[0], usage)
	}
	return cmd(ctx, args[1:], stdout)
}

// options holds the flags more than one subcommand reads.
type options struct {
	seed         int64
	scale        float64
	store        string
	out          string
	workers      int
	faultRate    float64
	faultSeed    int64
	addr         string
	drainTimeout time.Duration
}

// flagSet returns the flag set of subcommand cmd with the named shared
// flags registered on it.
func (o *options) flagSet(cmd string, shared ...string) *flag.FlagSet {
	fs := flag.NewFlagSet("crowdscope "+cmd, flag.ContinueOnError)
	for _, name := range shared {
		switch name {
		case "seed":
			fs.Int64Var(&o.seed, name, 42, "generation seed")
		case "scale":
			fs.Float64Var(&o.scale, name, 0.01, "fraction of paper scale (1.0 = 744,036 companies / 1,109,441 users)")
		case "store":
			fs.StringVar(&o.store, name, "", "store directory (scale: empty means a temp dir, removed on success)")
		case "out":
			fs.StringVar(&o.out, name, "", "optional output directory")
		case "workers":
			fs.IntVar(&o.workers, name, 0, "worker pool size for the crawler and the parallel kernels (<=0: 8 crawler workers, GOMAXPROCS kernel workers); results are identical for any value")
		case "fault-rate":
			fs.Float64Var(&o.faultRate, name, 0, "deterministic per-kind API fault rate [0,0.2)")
		case "fault-seed":
			fs.Int64Var(&o.faultSeed, name, 1, "fault schedule seed")
		case "addr":
			fs.StringVar(&o.addr, name, ":8080", "listen address")
		case "drain-timeout":
			fs.DurationVar(&o.drainTimeout, name, 30*time.Second, "how long shutdown waits for in-flight requests")
		default:
			panic("crowdscope: no shared flag " + name)
		}
	}
	return fs
}

// storeDir returns -store, which every subcommand but scale needs.
func (o *options) storeDir() (string, error) {
	if o.store == "" {
		return "", errors.New("-store is required")
	}
	return o.store, nil
}

// faultConfig is the API fault profile -fault-rate and -fault-seed ask
// for: 5xx errors at rate, and 429 bursts, slow responses, truncated
// bodies and connection resets at rate/2 each, on a schedule replayed
// exactly from seed. Nil (no injection) when rate is 0.
func faultConfig(rate float64, seed int64) *apiserver.FaultConfig {
	if rate <= 0 {
		return nil
	}
	half := rate / 2
	return &apiserver.FaultConfig{
		Seed: seed,
		Default: apiserver.FaultProfile{
			ServerError: rate,
			RateLimit:   half,
			Slow:        half,
			Truncate:    half,
			Reset:       half,
		},
	}
}

// serveUntilDone serves h on ln until ctx is cancelled, then calls
// beginDrain, lets in-flight requests finish for up to timeout and
// returns once they have: returning earlier would cut responses off
// mid-write.
func serveUntilDone(ctx context.Context, ln net.Listener, h http.Handler, timeout time.Duration, beginDrain func()) error {
	srv := &http.Server{Handler: h}
	var serveErr error
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveErr = srv.Serve(ln)
	}()
	select {
	case <-served:
		return serveErr
	case <-ctx.Done():
	}
	log.Print("signal received; draining")
	beginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
		srv.Close()
	}
	<-served
	log.Print("drained; bye")
	return nil
}

// writeFile creates dir (if needed) and dir/name, and fills the file
// with write.
func writeFile(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
