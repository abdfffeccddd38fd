package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewECDFErrors(t *testing.T) {
	if _, err := newECDF(nil); err == nil {
		t.Fatal("expected error for empty sample")
	}
	if _, err := newECDF([]float64{1, math.NaN()}); err == nil {
		t.Fatal("expected error for NaN sample")
	}
}

func TestECDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	MustECDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestECDFPoints(t *testing.T) {
	e := MustECDF([]float64{1, 1, 2, 3, 3, 3})
	xs, ys := e.Points()
	wantX := []float64{1, 2, 3}
	wantY := []float64{2.0 / 6, 3.0 / 6, 1}
	if len(xs) != len(wantX) {
		t.Fatalf("got %d points, want %d", len(xs), len(wantX))
	}
	for i := range xs {
		if xs[i] != wantX[i] || math.Abs(ys[i]-wantY[i]) > 1e-12 {
			t.Errorf("point %d = (%g,%g), want (%g,%g)", i, xs[i], ys[i], wantX[i], wantY[i])
		}
	}
}

// Property: the ECDF's support points step strictly up in x and in
// Fn(x), stay in (0, 1], and end at 1.
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		xs, ys := MustECDF(sample).Points()
		for i := range xs {
			if ys[i] <= 0 || ys[i] > 1 || i > 0 && (xs[i] <= xs[i-1] || ys[i] <= ys[i-1]) {
				return false
			}
		}
		return ys[len(ys)-1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDKWEpsilonPaperFigure(t *testing.T) {
	// The paper: n = 800,000 pairs, 99% confidence, eps <= 0.0196.
	// DKW gives sqrt(ln(200)/(1.6e6)) ≈ 0.00182 — comfortably within the
	// paper's claimed 0.0196 band.
	eps, err := DKWEpsilon(800000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if eps > 0.0196 {
		t.Errorf("DKW eps = %g, paper claims <= 0.0196", eps)
	}
}

func TestDKWEpsilonErrors(t *testing.T) {
	if _, err := DKWEpsilon(0, 0.99); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := DKWEpsilon(10, 1.5); err == nil {
		t.Error("expected error for confidence > 1")
	}
}

// Property: ECDF converges (Glivenko–Cantelli, checked loosely): for a large
// uniform sample, sup distance to the true CDF is within the 99.9% DKW band.
func TestECDFGlivenkoCantelli(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 20000
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = rng.Float64()
	}
	// Fn steps at each support point, so sup_x |Fn(x) - x| is attained
	// at a step: against Fn(x) itself or its left limit.
	xs, ys := MustECDF(sample).Points()
	eps, _ := DKWEpsilon(n, 0.999)
	var sup, prev float64
	for i, x := range xs {
		sup = math.Max(sup, math.Max(math.Abs(ys[i]-x), math.Abs(prev-x)))
		prev = ys[i]
	}
	if sup > eps {
		t.Errorf("sup distance %g exceeds DKW band %g", sup, eps)
	}
}
