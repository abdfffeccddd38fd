package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdscope/internal/leakcheck"
)

// zeroEverywhere lists the per-layer metrics a healthy smoke run leaves
// at 0 on every workload: failure counters, and the two harness
// readings that are differences or shares and may round to nothing.
var zeroEverywhere = map[string]bool{
	"crawler.client_retries": true, "core.delta_fallbacks": true,
	"serve.shed": true, "serve.breaker_trips": true,
	"front.retries": true, "front.ejections": true,
	"harness.late_share": true, "harness.trace_overhead_pct": true,
}

// TestSmokeAllWorkloads runs the four workloads, untraced and traced,
// at tiny sizes in this process: every check must pass, no goroutine
// may outlive its run, and every declared metric must be produced by
// some workload.
func TestSmokeAllWorkloads(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	sp, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	logOut = testWriter{t}
	t.Cleanup(func() { logOut = os.Stderr })
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the program has %d", specFile, len(sp.Workloads), len(workloads))
	}
	moved := map[string]bool{}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			rep, tr, err := runWorkload(context.Background(), sp, w.Name, 3, 1.5, traced, smokeSizes, t.TempDir())
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := len(sp.EndToEnd)
			if traced {
				want = len(sp.PerLayer)
				if tr == nil || len(tr.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
			}
			if len(rep.Metrics) != want {
				t.Errorf("%s (traced=%v): %d metrics, want %d", w.Name, traced, len(rep.Metrics), want)
			}
			for name, v := range rep.Metrics {
				if v.Value != 0 {
					moved[name] = true
				}
			}
		}
	}
	for _, d := range sp.PerLayer {
		if !moved[d.Name] && !zeroEverywhere[d.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload: nothing measures it", d.Name)
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// The repository's .gitignore has unanchored viz/, crawl-data/ and *.svg
// patterns that already swallowed one package; nothing the benchmark
// commits may match them.
func TestNoPathMatchesUnanchoredIgnores(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if name == "viz" || name == "crawl-data" || strings.HasSuffix(name, ".svg") || strings.HasPrefix(name, ".bench_tmp-") {
			t.Errorf("%s matches a .gitignore pattern and would not be committed", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
