package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestReservoirSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	got := ReservoirSample(rng, 3, 10)
	if len(got) != 3 {
		t.Fatalf("k>n should return all: %v", got)
	}
	sample := ReservoirSample(rng, 1000, 50)
	if len(sample) != 50 {
		t.Fatalf("len = %d", len(sample))
	}
	seen := map[int]bool{}
	for _, v := range sample {
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate: %d", v)
		}
		seen[v] = true
	}
}

func TestReservoirSampleUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	hits := make([]int, 10)
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		for _, idx := range ReservoirSample(rng, 10, 3) {
			hits[idx]++
		}
	}
	want := float64(trials) * 3 / 10
	for i, h := range hits {
		if math.Abs(float64(h)-want) > want*0.08 {
			t.Errorf("index %d hit %d times, want ≈%g", i, h, want)
		}
	}
}

func TestBootstrap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sample := []float64{1, 2, 3, 4, 5}
	var means []float64
	Bootstrap(rng, sample, 200, func(rs []float64) {
		means = append(means, Mean(rs))
	})
	if len(means) != 200 {
		t.Fatalf("got %d resamples", len(means))
	}
	m := Mean(means)
	if m < 2 || m > 4 {
		t.Errorf("bootstrap mean of means = %g", m)
	}
	// No-ops:
	Bootstrap(rng, nil, 5, func([]float64) { t.Fatal("called for empty sample") })
	Bootstrap(rng, sample, 0, func([]float64) { t.Fatal("called for zero iterations") })
}

func TestBoundedZipfErrors(t *testing.T) {
	if _, err := NewBoundedZipf(1.5, 0); err == nil {
		t.Error("expected error for max=0")
	}
	if _, err := NewBoundedZipf(0, 10); err == nil {
		t.Error("expected error for s=0")
	}
}

func TestBoundedZipfShape(t *testing.T) {
	z, err := NewBoundedZipf(2.0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	counts := map[int]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Sample(rng)
		if v < 1 || v > 1000 {
			t.Fatalf("sample out of range: %d", v)
		}
		counts[v]++
	}
	// P(1)/P(2) should be ~4 for s=2.
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 3.4 || ratio > 4.6 {
		t.Errorf("P(1)/P(2) = %g, want ≈4", ratio)
	}
	// Empirical mean should match the exact mean.
	var sum float64
	for v, c := range counts {
		sum += float64(v) * float64(c)
	}
	if got, want := sum/n, z.Mean(); math.Abs(got-want) > 0.1 {
		t.Errorf("empirical mean %g vs exact %g", got, want)
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Error("expected error for no weights")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("expected error for all-zero weights")
	}
	if _, err := NewAlias([]float64{-1, 2}); err == nil {
		t.Error("expected error for negative weight")
	}
	if _, err := NewAlias([]float64{math.NaN()}); err == nil {
		t.Error("expected error for NaN weight")
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	counts := make([]int, 4)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[a.Sample(rng)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want) > want*0.05 {
			t.Errorf("index %d drawn %d times, want ≈%g", i, counts[i], want)
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a, err := NewAlias([]float64{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50000; i++ {
		v := a.Sample(rng)
		if v == 0 || v == 2 {
			t.Fatalf("drew zero-weight index %d", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 1000; i++ {
		if v := LogNormal(rng, 2, 1.5); v <= 0 {
			t.Fatalf("non-positive lognormal draw %g", v)
		}
	}
}
