package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sorted returns an ascending copy of the samples.
func sorted(samples []float64) []float64 {
	out := append([]float64(nil), samples...)
	sort.Float64s(out)
	return out
}

// quantile reads the p-quantile (0..1) of ascending samples by the
// nearest-rank rule; 0 for an empty sample.
func quantile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

func median(samples []float64) float64 { return quantile(sorted(samples), 0.5) }

func sum(samples []float64) float64 {
	var s float64
	for _, v := range samples {
		s += v
	}
	return s
}

func mean(samples []float64) float64 { return sum(samples) / float64(len(samples)) }

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", highest first, in hundredths of a percent so the
// arithmetic stays exact.
var tailPercentiles = []int{9999, 9990, 9900, 9500, 9000, 7500}

// supportedTail picks the highest candidate percentile that still has at
// least ten samples beyond it, so the reported tail is never one
// outlier's latency. With fewer than 40 samples no candidate qualifies
// and the median stands in.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n*(10000-p) >= 10*10000 {
			return float64(p) / 10000
		}
	}
	return 0.5
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM);
// each workload runs in its own process, so this is per workload.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// diskUsage sums the regular files under dir.
func diskUsage(dir string) (bytes int64, files int, err error) {
	err = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		files++
		return nil
	})
	return bytes, files, err
}
