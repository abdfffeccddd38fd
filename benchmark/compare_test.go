package main

import "testing"

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	shift := func(vals []float64, f float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name          string
		before, after []float64
		lower         bool
		bound         float64
		want          string
	}{
		{"same", steady, steady, true, 0.10, "pass"},
		{"worse within bound", steady, shift(steady, 1.05), true, 0.10, "pass"},
		{"worse beyond bound", steady, shift(steady, 1.20), true, 0.10, "regressed"},
		{"higher is better, fell", steady, shift(steady, 0.80), false, 0.10, "regressed"},
		{"higher is better, rose", steady, shift(steady, 1.30), false, 0.10, "pass"},
		{"spread wider than bound", noisy, shift(noisy, 1.05), true, 0.10, "unresolved"},
		{"spread wide but every run better", noisy, shift(noisy, 0.30), true, 0.10, "pass"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.before, c.after, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
