package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestPearsonBasics(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single point not rejected")
	}
	r, err := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6})
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect positive r = %g (%v)", r, err)
	}
	r, _ = Pearson([]float64{1, 2, 3}, []float64{6, 4, 2})
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect negative r = %g", r)
	}
	r, _ = Pearson([]float64{1, 2, 3}, []float64{5, 5, 5})
	if r != 0 {
		t.Errorf("constant sample r = %g", r)
	}
}

func TestPearsonIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 5000)
	y := make([]float64, 5000)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.05 {
		t.Errorf("independent samples r = %g", r)
	}
}

func TestChiSquare2x2(t *testing.T) {
	if _, _, err := ChiSquare2x2(-1, 0, 0, 0); err == nil {
		t.Error("negative cell not rejected")
	}
	// Strong association: should be significant.
	chi2, p, err := ChiSquare2x2(90, 10, 10, 90)
	if err != nil {
		t.Fatal(err)
	}
	if chi2 < 50 || p > 1e-6 {
		t.Errorf("strong association chi2=%g p=%g", chi2, p)
	}
	// No association: chi2 ≈ 0, p ≈ 1.
	chi2, p, _ = ChiSquare2x2(50, 50, 50, 50)
	if chi2 > 0.1 || p < 0.5 {
		t.Errorf("null association chi2=%g p=%g", chi2, p)
	}
	// Degenerate margins.
	chi2, p, _ = ChiSquare2x2(0, 0, 10, 10)
	if chi2 != 0 || p != 1 {
		t.Errorf("degenerate table chi2=%g p=%g", chi2, p)
	}
}
