package stats

import (
	"errors"
	"math"
)

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples. It returns an error for mismatched or too-short inputs, and 0
// when either sample is constant.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: Pearson needs equal-length samples")
	}
	if len(x) < 2 {
		return 0, errors.New("stats: Pearson needs at least 2 points")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ChiSquare2x2 computes the chi-square statistic (with Yates continuity
// correction) and an approximate p-value for a 2×2 contingency table
//
//	| a b |
//	| c d |
//
// — e.g. social-presence × funded. Used to check that the Figure 6
// differences are significant rather than sampling noise.
func ChiSquare2x2(a, b, c, d float64) (chi2, p float64, err error) {
	n := a + b + c + d
	if n <= 0 || a < 0 || b < 0 || c < 0 || d < 0 {
		return 0, 1, errors.New("stats: invalid contingency table")
	}
	r1, r2 := a+b, c+d
	c1, c2 := a+c, b+d
	if r1 == 0 || r2 == 0 || c1 == 0 || c2 == 0 {
		return 0, 1, nil
	}
	num := math.Abs(a*d-b*c) - n/2
	if num < 0 {
		num = 0
	}
	chi2 = n * num * num / (r1 * r2 * c1 * c2)
	// p-value for 1 degree of freedom: P(X > chi2) = erfc(sqrt(chi2/2)).
	p = math.Erfc(math.Sqrt(chi2 / 2))
	return chi2, p, nil
}
