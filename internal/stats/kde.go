package stats

import (
	"errors"
	"math"
	"sort"
)

// KDE is a one-dimensional Gaussian kernel density estimator, used to draw
// the smooth PDF over per-community percentages in Figure 5.
type KDE struct {
	sample    []float64
	bandwidth float64
}

// NewKDE builds a Gaussian KDE over the sample. If bandwidth <= 0 the
// Silverman rule-of-thumb bandwidth is used. The sample is copied.
func NewKDE(sample []float64, bandwidth float64) (*KDE, error) {
	if len(sample) == 0 {
		return nil, errors.New("stats: empty sample for KDE")
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	if bandwidth <= 0 {
		bandwidth = silvermanBandwidth(s)
	}
	if bandwidth <= 0 {
		// Degenerate sample (all values equal): fall back to a tiny positive
		// bandwidth so evaluation stays finite.
		bandwidth = 1e-9
	}
	return &KDE{sample: s, bandwidth: bandwidth}, nil
}

// silvermanBandwidth implements h = 0.9 * min(sd, IQR/1.34) * n^(-1/5).
func silvermanBandwidth(sorted []float64) float64 {
	sd := stdDev(sorted)
	iqr := Percentile(sorted, 75) - Percentile(sorted, 25)
	spread := sd
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 {
		spread = sd
	}
	return 0.9 * spread * math.Pow(float64(len(sorted)), -0.2)
}

// eval returns the estimated density at x.
func (k *KDE) eval(x float64) float64 {
	const invSqrt2Pi = 0.3989422804014327
	var sum float64
	for _, xi := range k.sample {
		u := (x - xi) / k.bandwidth
		sum += invSqrt2Pi * math.Exp(-0.5*u*u)
	}
	return sum / (float64(len(k.sample)) * k.bandwidth)
}

// Grid evaluates the density at n evenly spaced points spanning the sample
// range padded by three bandwidths on each side, returning xs and densities.
func (k *KDE) Grid(n int) ([]float64, []float64) {
	if n < 2 {
		n = 2
	}
	lo := k.sample[0] - 3*k.bandwidth
	hi := k.sample[len(k.sample)-1] + 3*k.bandwidth
	xs := make([]float64, n)
	ys := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
		ys[i] = k.eval(xs[i])
	}
	return xs, ys
}
