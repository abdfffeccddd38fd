// Package parallel provides the bounded worker pool shared by the store
// loaders and the graph-analytics kernels, so that every parallel code
// path in the system — the shard walk of the freeze, per-source BFS
// kernels, CoDA's block-coordinate row sweeps, pair-sampled metrics —
// honors one concurrency knob.
//
// Determinism contract: Each and EachErr make no ordering promises
// and are only safe for tasks whose writes are disjoint. Ordered adds a
// serialized merge phase that runs in strictly increasing index order
// regardless of worker count or scheduling, which is how the kernels keep
// their floating-point reductions bit-identical between workers=1 and
// workers=N.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of concurrently running tasks. A Pool is
// immutable and safe for concurrent use; it holds no goroutines between
// calls, so an idle Pool costs nothing.
type Pool struct {
	workers int
}

// New returns a pool running at most workers tasks concurrently.
// workers <= 0 selects the process-wide default (see SetDefaultWorkers),
// which starts at GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		return Default()
	}
	return &Pool{workers: workers}
}

var defaultPool atomic.Pointer[Pool]

func init() {
	defaultPool.Store(&Pool{workers: runtime.GOMAXPROCS(0)})
}

// Default returns the process-wide pool, sized GOMAXPROCS until
// SetDefaultWorkers overrides it.
func Default() *Pool { return defaultPool.Load() }

// SetDefaultWorkers resizes the process-wide default pool — the single
// concurrency knob the CLIs' -workers flag turns. n <= 0 restores
// GOMAXPROCS.
func SetDefaultWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	defaultPool.Store(&Pool{workers: n})
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// WorkersFor returns the number of workers a job of n tasks will actually
// use: min(Workers, n), at least 1. Kernels use it to size per-worker
// scratch allocations.
func (p *Pool) WorkersFor(n int) int {
	w := p.workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Each runs f(i) for every i in [0, n) with bounded parallelism. Tasks
// are claimed dynamically (work-stealing), so f must tolerate any
// execution order and must confine its writes to task-owned state.
func (p *Pool) Each(n int, f func(i int)) {
	p.eachWorker(n, func(_, i int) { f(i) })
}

// eachWorker is Each with the claiming worker's id (0 <= w < WorkersFor(n))
// passed alongside the task index, so tasks can reuse per-worker scratch
// buffers. A worker runs its tasks sequentially; scratch needs no locking.
func (p *Pool) eachWorker(n int, f func(w, i int)) {
	if n == 0 {
		return
	}
	workers := p.WorkersFor(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// EachErr is Each for fallible tasks: the first error stops new tasks
// from being claimed and is returned once in-flight tasks drain.
func (p *Pool) EachErr(n int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := p.WorkersFor(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		err    error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if e := f(i); e != nil {
					failed.Store(true)
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return err
}

// Ordered runs n tasks in two phases: compute(w, i) executes concurrently
// under the pool's bound (w is the worker id, for scratch access), and
// merge(w, i) is then called exactly once per task, serialized in strictly
// increasing i order. A worker always merges task i before computing its
// next task, so scratch filled by compute(w, i) is safe to reuse right
// after merge(w, i) returns.
//
// Because merges happen in index order no matter how tasks interleave,
// a floating-point reduction performed in merge produces bit-identical
// results for every worker count — the property the analytics kernels
// rely on for their determinism guarantee.
//
// Every task costs one hand-off (a mutex, a cond.Wait and a Broadcast),
// so tasks must be coarse. With one few-µs CoDA row per task, the fit of
// a scale-0.1 filtered graph (5.9K rows per sweep) ran slower at two
// workers than at one: 1.10–1.39 s against 0.96–1.09 s on a 2-vCPU Xeon.
// CoDA therefore hands out blocks of 64 rows.
func (p *Pool) Ordered(n int, compute func(w, i int), merge func(w, i int)) {
	if n == 0 {
		return
	}
	workers := p.WorkersFor(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			compute(0, i)
			merge(0, i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		turn int
	)
	cond := sync.NewCond(&mu)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				compute(w, i)
				mu.Lock()
				for turn != i {
					cond.Wait()
				}
				mu.Unlock()
				// Exclusive: only the worker holding task `turn` gets here,
				// and turn advances after merge completes.
				merge(w, i)
				mu.Lock()
				turn++
				cond.Broadcast()
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}
