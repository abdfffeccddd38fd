package parallel

import (
	"errors"
	"sync/atomic"
	"testing"

	"crowdscope/internal/leakcheck"
)

func TestEachCoversAllIndices(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{1, 2, 4, 9} {
		p := New(workers)
		const n = 1000
		var hits [n]atomic.Int32
		p.Each(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestEachWorkerIDsBounded(t *testing.T) {
	p := New(4)
	const n = 200
	var bad atomic.Bool
	p.eachWorker(n, func(w, i int) {
		if w < 0 || w >= p.WorkersFor(n) {
			bad.Store(true)
		}
	})
	if bad.Load() {
		t.Fatal("worker id outside [0, WorkersFor(n))")
	}
}

func TestEachErrPropagatesFirstError(t *testing.T) {
	// The early-error path is the pool's leak hazard: workers past the
	// failing index must still be joined, not abandoned.
	leakcheck.Check(t)
	p := New(4)
	sentinel := errors.New("boom")
	var ran atomic.Int32
	err := p.EachErr(100, func(i int) error {
		ran.Add(1)
		if i == 17 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// Serial path: must stop immediately after the failing index.
	p1 := New(1)
	ran.Store(0)
	err = p1.EachErr(100, func(i int) error {
		ran.Add(1)
		if i == 17 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || ran.Load() != 18 {
		t.Fatalf("serial: err=%v ran=%d, want sentinel after 18", err, ran.Load())
	}
}

func TestOrderedMergesInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		const n = 500
		results := make([]int, 0, n)
		p.Ordered(n,
			func(w, i int) {
				// Uneven compute cost to force out-of-order completion.
				spin := (i * 37) % 101
				for k := 0; k < spin*50; k++ {
					_ = k * k
				}
			},
			func(w, i int) {
				results = append(results, i)
			})
		if len(results) != n {
			t.Fatalf("workers=%d: merged %d tasks, want %d", workers, len(results), n)
		}
		for i, v := range results {
			if v != i {
				t.Fatalf("workers=%d: merge order broken at %d: got %d", workers, i, v)
			}
		}
	}
}

// TestOrderedScratchReuse checks the contract that a worker's scratch is
// safe to reuse after its merge returns: each worker tags its scratch per
// task and the merge must observe its own task's tag.
func TestOrderedScratchReuse(t *testing.T) {
	p := New(4)
	const n = 300
	w4 := p.WorkersFor(n)
	scratch := make([]int, w4)
	var bad atomic.Bool
	p.Ordered(n,
		func(w, i int) { scratch[w] = i },
		func(w, i int) {
			if scratch[w] != i {
				bad.Store(true)
			}
		})
	if bad.Load() {
		t.Fatal("scratch overwritten before merge")
	}
}

func TestWorkersFor(t *testing.T) {
	p := New(8)
	if got := p.WorkersFor(3); got != 3 {
		t.Errorf("WorkersFor(3) = %d, want 3", got)
	}
	if got := p.WorkersFor(100); got != 8 {
		t.Errorf("WorkersFor(100) = %d, want 8", got)
	}
	if got := p.WorkersFor(0); got != 1 {
		t.Errorf("WorkersFor(0) = %d, want 1", got)
	}
}

func TestDefaultPoolKnob(t *testing.T) {
	orig := Default().Workers()
	SetDefaultWorkers(3)
	if got := Default().Workers(); got != 3 {
		t.Errorf("Default().Workers() = %d after SetDefaultWorkers(3)", got)
	}
	if got := New(0).Workers(); got != 3 {
		t.Errorf("New(0).Workers() = %d, want default 3", got)
	}
	SetDefaultWorkers(orig)
}

func TestEmptyJobs(t *testing.T) {
	p := New(4)
	p.Each(0, func(int) { t.Fatal("called") })
	p.Ordered(0, func(int, int) { t.Fatal("called") }, func(int, int) { t.Fatal("called") })
	if err := p.EachErr(0, func(int) error { return errors.New("x") }); err != nil {
		t.Fatal(err)
	}
}
