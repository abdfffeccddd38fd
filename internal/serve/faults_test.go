package serve

import (
	"context"
	"errors"
	"testing"
)

// TestFaultScheduleMatchesUniformDraws pins the injector to its
// contract: the nth call of an op fails iff the nth uniform draw of the
// (seed, op) stream lands under the rate.
func TestFaultScheduleMatchesUniformDraws(t *testing.T) {
	const (
		seed = int64(42)
		rate = 0.5
		n    = 200
	)
	f := NewFaultyBackend(&stubBackend{}, FaultConfig{Seed: seed, Rate: rate})
	for i := 0; i < n; i++ {
		err := f.ReadRecords(context.Background(), "users", nil, nil)
		want := faultUniform(seed, "Scan", uint64(i)) < rate
		if got := errors.Is(err, ErrInjected); got != want {
			t.Fatalf("call %d: injected = %v, want %v", i, got, want)
		}
	}
	if f.Injected() == 0 || f.Injected() == n {
		t.Fatalf("degenerate schedule: %d/%d injected", f.Injected(), n)
	}
}

func TestFaultStreamsIndependentPerOp(t *testing.T) {
	a := faultUniform(7, "Scan", 0)
	b := faultUniform(7, "LoadFrozen", 0)
	if a == b {
		t.Fatal("different ops produced identical draws")
	}
	if faultUniform(7, "Scan", 0) != a {
		t.Fatal("draws are not reproducible")
	}
	if faultUniform(8, "Scan", 0) == a {
		t.Fatal("different seeds produced identical draws")
	}
}

// TestFaultToggleKeepsCounters proves SetEnabled(false) suppresses
// injection without consuming a different schedule: after re-enabling,
// call n still maps to draw n.
func TestFaultToggleKeepsCounters(t *testing.T) {
	const seed, rate = int64(3), 1.0
	f := NewFaultyBackend(&stubBackend{}, FaultConfig{Seed: seed, Rate: rate})
	f.SetEnabled(false)
	for i := 0; i < 10; i++ {
		if err := f.ReadRecords(context.Background(), "users", nil, nil); err != nil {
			t.Fatalf("disabled injector failed call %d: %v", i, err)
		}
	}
	f.SetEnabled(true)
	err := f.ReadRecords(context.Background(), "users", nil, nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("re-enabled injector at rate 1.0 did not inject: %v", err)
	}
	if got := f.Injected(); got != 1 {
		t.Fatalf("injected = %d, want 1 (disabled calls must not count)", got)
	}
}

func TestFaultPerOpOverride(t *testing.T) {
	f := NewFaultyBackend(&stubBackend{latest: 5}, FaultConfig{
		Seed:  1,
		Rate:  1.0,
		PerOp: map[string]float64{"LatestFrozen": 0},
	})
	if _, err := f.LatestFrozen(context.Background()); err != nil {
		t.Fatalf("overridden op injected: %v", err)
	}
	if err := f.ReadRecords(context.Background(), "users", nil, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("default-rate op did not inject: %v", err)
	}
}
