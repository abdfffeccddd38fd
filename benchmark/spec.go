package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// specFile is the benchmark contract at the root of the checkout. The
// program reads its metric lists from there instead of repeating them,
// so the names a run prints can never drift from the names the driver
// expects.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// spec is the part of the contract the program itself needs.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark: read spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("benchmark: parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics is what one run measured, by metric name.
type metrics map[string]float64

// outcome is one run's verdict: the checks made, the ones that failed,
// and the measured metrics.
type outcome struct {
	attempted int
	failed    int
	// e2e holds the end-to-end metrics, layer the per-layer ones; a run
	// prints one of the two, chosen by -trace.
	e2e   metrics
	layer metrics
}

func newOutcome() *outcome { return &outcome{e2e: metrics{}, layer: metrics{}} }

func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "benchmark: check failed: "+format+"\n", args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport projects the outcome onto the metric list the spec
// declares for this kind of run. An end-to-end metric must have been
// measured and be positive; a per-layer metric the workload never
// exercised reads 0, which is the statement "this layer does no work
// here". A measured name the spec does not declare is a typo and fails
// the run rather than vanishing.
func buildReport(s *spec, o *outcome, traced bool) (*report, error) {
	declared, measured := s.EndToEnd, o.e2e
	if traced {
		declared, measured = s.PerLayer, o.layer
	}
	rep := &report{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(declared)),
	}
	for _, d := range declared {
		v, ok := measured[d.Name]
		if !traced && (!ok || v <= 0) {
			return nil, fmt.Errorf("benchmark: end-to-end metric %s not measured (value %g)", d.Name, v)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	stray := undeclared(s.EndToEnd, o.e2e)
	stray = append(stray, undeclared(s.PerLayer, o.layer)...)
	if len(stray) > 0 {
		return nil, fmt.Errorf("benchmark: measured metrics missing from %s: %v", specFile, stray)
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("benchmark: nothing attempted")
	}
	return rep, nil
}

// undeclared lists the measured names the spec does not declare, sorted.
func undeclared(declared []metricSpec, measured metrics) []string {
	known := make(map[string]bool, len(declared))
	for _, d := range declared {
		known[d.Name] = true
	}
	var stray []string
	for name := range measured {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	sort.Strings(stray)
	return stray
}

// printTable writes every metric of the report by name with its unit,
// in the spec's order.
func printTable(w *os.File, s *spec, rep *report, traced bool) {
	declared := s.EndToEnd
	if traced {
		declared = s.PerLayer
	}
	for _, d := range declared {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
}
