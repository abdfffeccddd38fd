package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// recordLine is one run in a -record file.
type recordLine struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendRecord(path, workload string, seed int64, traced bool, rep *report) error {
	line := recordLine{Workload: workload, Seed: seed, Traced: traced, Correct: rep.Correct, Metrics: map[string]float64{}}
	for name, v := range rep.Metrics {
		line.Metrics[name] = v.Value
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("benchmark: encode record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("benchmark: open record file: %w", err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("benchmark: write record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("benchmark: close record file: %w", err)
	}
	return nil
}

// readRecords groups a record file's untraced runs as
// workload → metric → values.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark: open record file: %w", err)
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line recordLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("benchmark: parse %s: %w", path, err)
		}
		if line.Traced {
			continue // per-layer metrics carry no bound
		}
		if !line.Correct {
			return nil, fmt.Errorf("benchmark: %s holds an incorrect run of %s (seed %d)", path, line.Workload, line.Seed)
		}
		if out[line.Workload] == nil {
			out[line.Workload] = map[string][]float64{}
		}
		for name, v := range line.Metrics {
			out[line.Workload][name] = append(out[line.Workload][name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchmark: read %s: %w", path, err)
	}
	return out, nil
}

// verdict compares a metric's runs after a change with its runs before,
// by the rule the bound defines: the change's median may be worse than
// the parent's by at most bound × the parent's median. When the
// parent's own quartile spread is wider than that allowance the
// comparison cannot tell a regression from noise, and the pair is
// unresolved unless every run of the change beats every run of the
// parent.
func verdict(before, after []float64, lowerIsBetter bool, bound float64) (string, float64) {
	b, a := sorted(before), sorted(after)
	mb, ma := quantile(b, 0.5), quantile(a, 0.5)
	worse := (ma - mb) / mb
	if !lowerIsBetter {
		worse = -worse
	}
	spread := (quantile(b, 0.75) - quantile(b, 0.25)) / mb
	if spread > bound {
		allBetter := a[len(a)-1] < b[0]
		if !lowerIsBetter {
			allBetter = a[0] > b[len(b)-1]
		}
		if !allBetter {
			return "unresolved", worse
		}
	}
	if worse > bound {
		return "regressed", worse
	}
	return "pass", worse
}

// compareRecords prints pass / regressed / unresolved for every
// (metric, workload) and fails when anything regressed.
func compareRecords(w io.Writer, sp *spec, beforePath, afterPath string) error {
	before, err := readRecords(beforePath)
	if err != nil {
		return err
	}
	after, err := readRecords(afterPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(before))
	for name := range before {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed := 0
	fmt.Fprintf(w, "%-16s %-24s %12s %12s %8s %7s  %s\n", "workload", "metric", "before", "after", "worse", "bound", "verdict")
	for _, workload := range names {
		for _, d := range sp.EndToEnd {
			b, a := before[workload][d.Name], after[workload][d.Name]
			if len(b) == 0 || len(a) == 0 {
				fmt.Fprintf(w, "%-16s %-24s %12s %12s %8s %7s  missing\n", workload, d.Name, "-", "-", "-", "-")
				regressed++
				continue
			}
			v, worse := verdict(b, a, d.Better == "lower", d.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-24s %12.5g %12.5g %+7.1f%% %6.1f%%  %s\n",
				workload, d.Name, median(b), median(a), 100*worse, 100*d.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("benchmark: %d (metric, workload) pairs regressed or are missing", regressed)
	}
	return nil
}
