package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	var sum float64
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

// Median returns the sample median (average of the two central order
// statistics for even n), or 0 for an empty sample. The input is not
// modified.
func Median(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// variance returns the unbiased sample variance, or 0 when n < 2.
func variance(sample []float64) float64 {
	if len(sample) < 2 {
		return 0
	}
	m := Mean(sample)
	var ss float64
	for _, v := range sample {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(sample)-1)
}

// stdDev returns the unbiased sample standard deviation.
func stdDev(sample []float64) float64 { return math.Sqrt(variance(sample)) }

// Percentile returns the p-th percentile (p in [0,100]) using the
// nearest-rank method. The input is not modified.
func Percentile(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}
