package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"crowdscope/internal/core"
	"crowdscope/internal/index"
	"crowdscope/internal/query"
)

// ErrInjected marks a deterministic backend fault from FaultyBackend.
var ErrInjected = errors.New("serve: injected backend fault")

// FaultConfig drives the backend fault injector in the style of
// apiserver.FaultConfig: whether the nth call of an operation fails is a
// pure function of (Seed, op, n) — the nth uniform draw of a SplitMix64
// stream keyed on (Seed, op) compared against the op's error rate. A
// given seed therefore replays the exact same fault schedule per
// operation, regardless of how operations interleave.
type FaultConfig struct {
	// Seed keys the fault schedule.
	Seed int64
	// Rate is the per-call error probability applied to every operation
	// without a PerOp override.
	Rate float64
	// PerOp overrides the rate for one operation name ("LatestFrozen",
	// "LoadFrozen", "LoadDelta", "Scan").
	PerOp map[string]float64
}

// FaultyBackend wraps a Backend with deterministic, seeded error
// injection, the serving-layer analogue of the apiserver's HTTP fault
// injector. SetEnabled toggles the schedule mid-run — chaos tests load
// cleanly, inject a fault phase, then clear it — without disturbing the
// per-operation call counters, so the schedule stays a pure function of
// (Seed, op, call#).
type FaultyBackend struct {
	Inner Backend

	mu       sync.Mutex
	cfg      FaultConfig
	enabled  bool
	calls    map[string]uint64
	injected int64
}

// NewFaultyBackend wraps inner with the seeded fault schedule, enabled.
func NewFaultyBackend(inner Backend, cfg FaultConfig) *FaultyBackend {
	return &FaultyBackend{Inner: inner, cfg: cfg, enabled: true, calls: map[string]uint64{}}
}

// SetEnabled turns fault injection on or off.
func (f *FaultyBackend) SetEnabled(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.enabled = v
}

// Injected reports how many calls have been failed so far.
func (f *FaultyBackend) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// decide consumes one draw of op's schedule and reports whether this
// call fails.
func (f *FaultyBackend) decide(op string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.calls[op]
	f.calls[op]++
	if !f.enabled {
		return false
	}
	rate := f.cfg.Rate
	if r, ok := f.cfg.PerOp[op]; ok {
		rate = r
	}
	if rate <= 0 {
		return false
	}
	if faultUniform(f.cfg.Seed, op, n) >= rate {
		return false
	}
	f.injected++
	return true
}

// LatestFrozen implements Backend.
func (f *FaultyBackend) LatestFrozen(ctx context.Context) (int, error) {
	if f.decide("LatestFrozen") {
		return 0, fmt.Errorf("%w: LatestFrozen", ErrInjected)
	}
	return f.Inner.LatestFrozen(ctx)
}

// LoadFrozen implements Backend.
func (f *FaultyBackend) LoadFrozen(ctx context.Context, snap int) (*core.FrozenSnapshot, error) {
	if f.decide("LoadFrozen") {
		return nil, fmt.Errorf("%w: LoadFrozen(%d)", ErrInjected, snap)
	}
	return f.Inner.LoadFrozen(ctx, snap)
}

// ReadRecords implements Backend. The schedule keys stay "Scan" and
// "ScanRows" — they name the operation, and renaming them would reseed
// every pinned chaos schedule.
func (f *FaultyBackend) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(query.Record) error) error {
	if f.decide("Scan") {
		return fmt.Errorf("%w: Scan(%q)", ErrInjected, ns)
	}
	return f.Inner.ReadRecords(ctx, ns, fields, fn)
}

// TableIndex implements Backend. Faults here are absorbed by the query
// planner as scan fallbacks, never surfaced to clients — which is
// itself part of the resilience contract the chaos suite exercises.
func (f *FaultyBackend) TableIndex(ns string) (*index.TableIndex, error) {
	if f.decide("TableIndex") {
		return nil, fmt.Errorf("%w: TableIndex(%q)", ErrInjected, ns)
	}
	return f.Inner.TableIndex(ns)
}

// ApplyDelta implements Backend, with faults injected on the delta reads
// too. The schedule key stays "LoadDelta", so pinned chaos schedules
// replay.
func (f *FaultyBackend) ApplyDelta(ctx context.Context, base *core.FrozenSnapshot, snap int) (*core.FrozenSnapshot, error) {
	if f.decide("LoadDelta") {
		return nil, fmt.Errorf("%w: LoadDelta(%d)", ErrInjected, snap)
	}
	return f.Inner.ApplyDelta(ctx, base, snap)
}

// ReadRows implements Backend.
func (f *FaultyBackend) ReadRows(ctx context.Context, ns string, rows []int32, fields [][]string, fn func(query.Record) error) error {
	if f.decide("ScanRows") {
		return fmt.Errorf("%w: ScanRows(%q)", ErrInjected, ns)
	}
	return f.Inner.ReadRows(ctx, ns, rows, fields, fn)
}

// splitmix64 is the SplitMix64 output function (the same mixer the
// apiserver's fault injector uses), making counter-based
// (seed, stream, position) → uniform draws trivially reproducible.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultUniform returns the call#'th uniform draw in [0,1) of the stream
// keyed on (seed, op).
func faultUniform(seed int64, op string, call uint64) float64 {
	h := fnv.New64a()
	h.Write([]byte(op))
	stream := splitmix64(uint64(seed) ^ h.Sum64())
	return float64(splitmix64(stream+call)>>11) / (1 << 53)
}

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
