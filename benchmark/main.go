// Command benchmark is the CrowdScope benchmark every performance or
// simplicity change is judged by (see README.md in this directory and
// BENCHMARK.json at the repository root). It runs one of four workloads
// per process — the offline batch pipeline, a live crawl with replicas
// refreshing beside it, hot interactive serving, and ad-hoc scans —
// checks the outputs against plain-Go oracles, and prints every metric
// by name. End-to-end metrics come from a run with tracing off; a
// separate traced run records a span around each call into a layer's
// public functions and reports the per-layer metrics.
//
// Usage (from the repository root):
//
//	go run ./benchmark -workload serve_hot -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -workload all -seed 7
//	go run ./benchmark -compare before.jsonl after.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

// logOut receives diagnostics; results go to standard output.
var logOut io.Writer = os.Stderr

// sizes fixes every workload's input sizes. They are for a 2-core
// sandbox and the driver's time cap (about 35 s per run, set-up
// included); README.md records what ISSUE-sized runs looked like.
type sizes struct {
	batchScale  float64 // batch_pipeline world, as a fraction of the paper's 744,036 companies
	batchShards int     // store shards for the generate→ingest→freeze path
	// The accepted band for the mean investments per investor (Fig. 3,
	// paper 3.3). The distribution is long-tailed, so the mean wanders
	// with the seed at a fraction of the paper's size: 2.78–4.19 (median
	// 3.33) over 180 worlds at scale 0.1 (about 4,800 investors), 2.19–7.03
	// at 0.01. The band leaves that range room: a run has no operation
	// that may fail.
	// The median is the paper's 1 except at smoke size, where a few worlds
	// in a hundred have 2.
	fig3MeanLo, fig3MeanHi, fig3MedianHi float64
	crawlScale                           float64 // crawl_refresh world
	crawlRounds                          int     // rounds wall_s covers: one full freeze, the rest delta commits
	readerRate                           float64 // crawl_refresh reader, requests per second
	readerPop                            int     // its statement population (fits the 256-entry result cache)
	serveScale                           float64 // serve_hot / serve_adhoc snapshot
	hotRate                              float64 // serve_hot open-loop rate, requests per second
	hotPop                               int     // serve_hot population (exceeds result and statement caches)
	replaySample                         int     // traced serve_hot: statements replayed at each depth
	replayScans                          int     // traced serve_adhoc: scans replayed at each depth
	directGETs                           int     // traced crawl_refresh: requests straight at the API handler
	setupRepeats                         int     // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	batchScale: 0.1, batchShards: 8, fig3MeanLo: 2.4, fig3MeanHi: 5, fig3MedianHi: 1,
	crawlScale: 0.01, crawlRounds: 4, readerRate: 100, readerPop: 200,
	serveScale: 0.02, hotRate: 1000, hotPop: 2000,
	replaySample: 500, replayScans: 8, directGETs: 2000,
	setupRepeats: 3,
}

// smokeSizes makes all four workloads finish in seconds; the numbers
// mean nothing, the code paths and checks are the same.
var smokeSizes = sizes{
	batchScale: 0.01, batchShards: 4, fig3MeanLo: 1.5, fig3MeanHi: 10, fig3MedianHi: 2,
	crawlScale: 0.002, crawlRounds: 3, readerRate: 50, readerPop: 40,
	serveScale: 0.004, hotRate: 200, hotPop: 300,
	replaySample: 60, replayScans: 2, directGETs: 100,
	setupRepeats: 2,
}

// env is what a workload runs with.
type env struct {
	ctx     context.Context
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
	scratch string  // stores live here; inside the working directory, removed at exit
	tr      *tracer // nil when not traced
	out     *outcome
}

var workloads = map[string]func(*env) error{
	"batch_pipeline": batchPipeline,
	"crawl_refresh":  crawlRefresh,
	"serve_hot":      serveHot,
	"serve_adhoc":    serveAdhoc,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "batch_pipeline | crawl_refresh | serve_hot | serve_adhoc | all")
	seed := fs.Int64("seed", 1, "drives the world seed, the statement populations and the Zipf draws")
	seconds := fs.Float64("seconds", 0, "measuring time (default: run_seconds from "+specFile+")")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: prints the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "traced run: write the spans to this file")
	record := fs.String("record", "", "append this run's metrics as one JSON line to this file (input for -compare)")
	smoke := fs.Bool("smoke", false, "tiny sizes: exercises every code path in seconds, measures nothing")
	compare := fs.Bool("compare", false, "compare two -record files given as arguments against the bounds in "+specFile)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("benchmark: -compare needs two record files")
		}
		return compareRecords(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *workload == "all" {
		return runAll(sp, *seed, *seconds, *smoke, *record)
	}
	if !sp.hasWorkload(*workload) || workloads[*workload] == nil {
		return fmt.Errorf("benchmark: unknown workload %q", *workload)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	rep, tr, err := runWorkload(ctx, sp, *workload, *seed, *seconds, *trace == 1, sz, ".")
	if err != nil {
		return err
	}
	if err := tr.write(*traceOut, *workload, *seed); err != nil {
		return err
	}
	if *record != "" {
		if err := appendRecord(*record, *workload, *seed, *trace == 1, rep); err != nil {
			return err
		}
	}
	printTable(os.Stdout, sp, rep, *trace == 1)
	line, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("benchmark: encode report: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload runs one workload in this process and returns its report.
// Stores go under a scratch directory inside base, removed on return.
func runWorkload(ctx context.Context, sp *spec, name string, seed int64, seconds float64, traced bool, sz sizes, base string) (*report, *tracer, error) {
	scratch, err := os.MkdirTemp(base, ".bench_tmp-")
	if err != nil {
		return nil, nil, fmt.Errorf("benchmark: scratch directory: %w", err)
	}
	if scratch, err = filepath.Abs(scratch); err != nil {
		return nil, nil, fmt.Errorf("benchmark: scratch directory: %w", err)
	}
	e := &env{ctx: ctx, seed: seed, seconds: seconds, traced: traced, sz: sz, scratch: scratch, out: newOutcome()}
	if traced {
		e.tr = newTracer()
	}
	e.out.layer["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	runErr := workloads[name](e)
	if err := os.RemoveAll(scratch); err != nil && runErr == nil {
		runErr = fmt.Errorf("benchmark: remove scratch directory: %w", err)
	}
	if runErr != nil {
		return nil, nil, runErr
	}
	rep, err := buildReport(sp, e.out, traced)
	return rep, e.tr, err
}

// runAll runs every workload untraced and traced, each in a process of
// its own so that peak_rss_mb is the workload's and not the sum's.
func runAll(sp *spec, seed int64, seconds float64, smoke bool, record string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("benchmark: locate own binary: %w", err)
	}
	for _, w := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace}
			if smoke {
				args = append(args, "-smoke")
			}
			if record != "" {
				args = append(args, "-record", record)
			}
			fmt.Printf("== %s (trace %s)\n", w.Name, trace)
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("benchmark: workload %s (trace %s): %w", w.Name, trace, err)
			}
		}
	}
	return nil
}
