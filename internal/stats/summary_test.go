package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestSummarizeEmpty: every summary statistic of an empty sample is 0.
func TestSummarizeEmpty(t *testing.T) {
	for name, got := range map[string]float64{
		"mean": Mean(nil), "median": Median(nil), "P50": Percentile(nil, 50), "sd": stdDev(nil),
	} {
		if got != 0 {
			t.Errorf("empty-sample %s = %g, want 0", name, got)
		}
	}
}

// TestSummarizeKnown checks the summary statistics of a textbook sample.
func TestSummarizeKnown(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(s); !almostEqual(m, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", m)
	}
	if md := Median(s); !almostEqual(md, 4.5, 1e-12) {
		t.Errorf("Median = %g, want 4.5", md)
	}
	if lo, hi := Percentile(s, 0), Percentile(s, 100); lo != 2 || hi != 9 {
		t.Errorf("min/max = %g/%g", lo, hi)
	}
	// Population sd is 2; sample sd = sqrt(32/7).
	if sd := stdDev(s); !almostEqual(sd, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("stdDev = %g", sd)
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("empty median = %g", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(s, 50); p != 5 {
		t.Errorf("P50 = %g, want 5", p)
	}
	if p := Percentile(s, 90); p != 9 {
		t.Errorf("P90 = %g, want 9", p)
	}
	if p := Percentile(s, 0); p != 1 {
		t.Errorf("P0 = %g, want 1", p)
	}
	if p := Percentile(s, 100); p != 10 {
		t.Errorf("P100 = %g, want 10", p)
	}
}

func TestVarianceSmall(t *testing.T) {
	if v := variance([]float64{5}); v != 0 {
		t.Errorf("single-element variance = %g", v)
	}
	if v := variance([]float64{1, 3}); v != 2 {
		t.Errorf("variance([1,3]) = %g, want 2", v)
	}
}

// Property: mean and median lie between the sample's min and max.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		lo, hi := Percentile(sample, 0), Percentile(sample, 100)
		mean, median := Mean(sample), Median(sample)
		return mean >= lo-1e-9 && mean <= hi+1e-9 && median >= lo && median <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: shifting the sample shifts mean and median by the same amount.
func TestShiftInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		s := make([]float64, n)
		shifted := make([]float64, n)
		shift := rng.NormFloat64() * 100
		for i := range s {
			s[i] = rng.NormFloat64()
			shifted[i] = s[i] + shift
		}
		if !almostEqual(Mean(shifted), Mean(s)+shift, 1e-9) {
			t.Fatalf("mean not shift-invariant")
		}
		if !almostEqual(Median(shifted), Median(s)+shift, 1e-9) {
			t.Fatalf("median not shift-invariant")
		}
		if !almostEqual(stdDev(shifted), stdDev(s), 1e-9) {
			t.Fatalf("sd not shift-invariant")
		}
	}
}
