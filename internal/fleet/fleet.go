// Package fleet is the shared parallel run harness: it fans independent,
// deterministic simulation runs — chaos seeds, ablation sweeps, experiment
// batteries, throughput benchmarks — across a bounded worker pool with
// ordered result delivery.
//
// Every run in this repository is a pure function of its inputs (seed,
// config) executing on its own private sim.Engine, so a batch of runs is
// embarrassingly parallel: no Time-Warp-style rollback machinery is needed,
// only isolation. fleet supplies the isolation discipline:
//
//   - each job executes exactly once, on one worker goroutine, against
//     state it alone owns (the job callback must not touch shared mutable
//     state — engines, trace logs, and stats registries are all per-run);
//   - results are delivered to the caller in job order (0, 1, 2, ...) on
//     the caller's goroutine, regardless of completion order, so output —
//     and anything derived from it, like a sweep's rendered table — is
//     byte-identical to a sequential run;
//   - the worker that executed each job is reported, so harnesses can
//     attribute failures and imbalance without threading IDs through the
//     job logic.
//
// A panic on any worker is captured and re-raised on the caller's goroutine
// once the in-flight jobs drain, preserving the experiment harness's
// fail-fast contract.
package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the default pool width: one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Result pairs one job's value with its scheduling metadata.
type Result[T any] struct {
	Job    int // job index in [0, n)
	Worker int // worker goroutine (in [0, workers)) that executed it
	Value  T
}

// Run executes jobs 0..n-1 on a pool of workers goroutines, calling run(job,
// worker) for each and delivering every result to emit on the caller's
// goroutine in strict job order. workers <= 0 means DefaultWorkers; the pool
// never exceeds n. With workers == 1 the jobs run inline on the caller's
// goroutine — the true sequential baseline, with no pool overhead at all.
//
// Emission is pipelined: emit(i) is called as soon as jobs 0..i have all
// finished, while later jobs are still executing.
func Run[T any](workers, n int, run func(job, worker int) T, emit func(Result[T])) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			emit(Result[T]{Job: i, Worker: 0, Value: run(i, 0)})
		}
		return
	}

	values := make([]T, n)
	workerOf := make([]int, n)
	panics := make([]any, n)
	done := make([]bool, n)
	var mu sync.Mutex
	ready := sync.NewCond(&mu)
	var next atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				v, pv := runOne(run, j, w)
				mu.Lock()
				values[j] = v
				workerOf[j] = w
				panics[j] = pv
				done[j] = true
				if pv != nil {
					// Fail fast: stop handing out new jobs. In-flight jobs
					// finish; the caller re-panics when it reaches this one.
					next.Store(int64(n))
				}
				ready.Broadcast()
				mu.Unlock()
			}
		}(w)
	}

	for i := 0; i < n; i++ {
		mu.Lock()
		for !done[i] {
			ready.Wait()
		}
		v, w, pv := values[i], workerOf[i], panics[i]
		mu.Unlock()
		if pv != nil {
			wg.Wait()
			panic(pv)
		}
		emit(Result[T]{Job: i, Worker: w, Value: v})
	}
	wg.Wait()
}

// runOne executes one job, converting a panic into a value instead of
// unwinding the worker goroutine.
func runOne[T any](run func(job, worker int) T, j, w int) (v T, pv any) {
	defer func() {
		pv = recover()
	}()
	return run(j, w), nil
}

// Map is Run with the results collected into a slice indexed by job.
func Map[T any](workers, n int, run func(job, worker int) T) []T {
	out := make([]T, n)
	Run(workers, n, run, func(r Result[T]) { out[r.Job] = r.Value })
	return out
}
