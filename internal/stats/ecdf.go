package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a sample.
// The zero value is not usable; construct with MustECDF.
type ECDF struct {
	sorted []float64
}

// newECDF builds an empirical CDF from the sample. The input slice is not
// modified. newECDF returns an error when the sample is empty or contains
// NaN values.
func newECDF(sample []float64) (*ECDF, error) {
	if len(sample) == 0 {
		return nil, errors.New("stats: empty sample for ECDF")
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	for _, v := range s {
		if math.IsNaN(v) {
			return nil, errors.New("stats: NaN in sample for ECDF")
		}
	}
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// MustECDF builds the empirical CDF of a sample the caller guarantees
// is non-empty and NaN-free; it panics on any other sample.
func MustECDF(sample []float64) *ECDF {
	e, err := newECDF(sample)
	if err != nil {
		panic(err)
	}
	return e
}

// Max returns the largest sample value.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Points returns the step-function support points (x, Fn(x)) at each
// distinct sample value, suitable for plotting the CDF curve.
func (e *ECDF) Points() ([]float64, []float64) {
	xs := make([]float64, 0, len(e.sorted))
	ys := make([]float64, 0, len(e.sorted))
	n := float64(len(e.sorted))
	for i := 0; i < len(e.sorted); i++ {
		// Emit one point per distinct value, at its last occurrence.
		if i+1 < len(e.sorted) && e.sorted[i+1] == e.sorted[i] {
			continue
		}
		xs = append(xs, e.sorted[i])
		ys = append(ys, float64(i+1)/n)
	}
	return xs, ys
}

// DKWEpsilon returns the half-width eps of the Dvoretzky–Kiefer–Wolfowitz
// confidence band: with probability at least confidence,
// sup_x |Fn(x) - F(x)| <= eps for a sample of size n.
//
// The paper invokes the Glivenko–Cantelli theorem to claim that with
// n = 800,000 i.i.d. pairs, P(||Fn - F||inf <= 0.0196) >= 99%; the DKW
// inequality is the quantitative form of that statement:
// eps = sqrt(ln(2/alpha) / (2n)).
func DKWEpsilon(n int, confidence float64) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("stats: DKW requires n > 0, got %d", n)
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("stats: DKW confidence must be in (0,1), got %g", confidence)
	}
	alpha := 1 - confidence
	return math.Sqrt(math.Log(2/alpha) / (2 * float64(n))), nil
}
