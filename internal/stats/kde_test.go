package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestKDEBasic(t *testing.T) {
	if _, err := NewKDE(nil, 0); err == nil {
		t.Fatal("expected error for empty KDE sample")
	}
	rng := rand.New(rand.NewSource(3))
	sample := make([]float64, 4000)
	for i := range sample {
		sample[i] = rng.NormFloat64()
	}
	k, err := NewKDE(sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.bandwidth <= 0 {
		t.Fatal("non-positive bandwidth")
	}
	// Density at the mode should exceed density in the tail.
	if k.eval(0) <= k.eval(3) {
		t.Errorf("eval(0)=%g not above eval(3)=%g", k.eval(0), k.eval(3))
	}
	// Should roughly match the standard normal density at 0 (~0.3989).
	if d := k.eval(0); d < 0.3 || d > 0.5 {
		t.Errorf("eval(0) = %g, want ≈0.399", d)
	}
}

func TestKDEGridIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = rng.NormFloat64() * 2
	}
	k, _ := NewKDE(sample, 0)
	xs, ys := k.Grid(400)
	var integral float64
	for i := 1; i < len(xs); i++ {
		integral += (ys[i] + ys[i-1]) / 2 * (xs[i] - xs[i-1])
	}
	if math.Abs(integral-1) > 0.02 {
		t.Errorf("KDE grid integrates to %g", integral)
	}
}

func TestKDEDegenerateSample(t *testing.T) {
	k, err := NewKDE([]float64{5, 5, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(k.eval(5), 0) || math.IsNaN(k.eval(5)) {
		t.Error("degenerate KDE not finite at the atom")
	}
}
