// Package batch is the parallel batch-execution engine behind every
// embarrassingly-parallel stage of the reproduction: dataset generation,
// the train/test evaluation sweeps, the Table I ablation grid,
// contingency screening,
// trajectories and the serving daemon's micro-batches all fan their
// per-case work out through this worker pool.
//
// The engine is built for reproducibility first and throughput second:
//
//   - Determinism. A task sees only its index; Map returns results in
//     index order and callers pre-draw any random inputs before the run,
//     so a run with 1 worker and a run with 64 workers produce
//     bit-identical outputs (timing fields aside).
//   - Error aggregation. Every task error is collected and reported —
//     joined in task-index order — rather than aborting at the first
//     failure, matching the workload's "skip unsolvable draws" policy.
//   - Panic propagation. A panic inside a task is recovered, stops the
//     hand-out of further indices and is re-raised in the caller's
//     goroutine with the task index attached, so a crash in a 10k-case
//     sweep still points at the case that caused it.
//
// Every worker count runs one loop: workers take the next index from a
// shared counter, and the calling goroutine is one of them, so one
// worker runs the tasks inline in index order. Worker-count resolution
// (first positive value wins): the explicit argument, the process-wide
// default set by SetDefaultWorkers (the cmd/* -workers flag), then
// GOMAXPROCS.
package batch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide pool size installed by
// SetDefaultWorkers (the cmd/* -workers flag); 0 means unset.
var defaultWorkers atomic.Int64

// SetDefaultWorkers installs a process-wide default pool size used when
// a run's explicit worker count is 0. n ≤ 0 clears it.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers resolves the effective pool size for the given explicit value:
// explicit > SetDefaultWorkers > GOMAXPROCS.
func Workers(explicit int) int {
	if explicit > 0 {
		return explicit
	}
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// TaskError attributes a task function's error to its task index.
type TaskError struct {
	Index int
	Err   error
}

// Error formats the error with its task index prefixed.
func (e *TaskError) Error() string { return fmt.Sprintf("task %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// taskPanic carries a recovered panic value from a worker back to the
// calling goroutine.
type taskPanic struct {
	index int
	value any
}

// Run executes fn for task indices 0..n-1 on Workers(workers) workers
// and blocks until all tasks finish. Task errors do not cancel the run;
// they are collected and returned joined in task-index order
// (errors.Join), each wrapped in a *TaskError. A task panic is re-raised
// in the caller's goroutine after the pool drains.
func Run(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var panicked atomic.Pointer[taskPanic]

	work := func() {
		i := -1
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &taskPanic{index: i, value: r})
			}
		}()
		for panicked.Load() == nil {
			if i = int(next.Add(1)) - 1; i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(Workers(workers), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if p := panicked.Load(); p != nil {
		panic(fmt.Sprintf("batch: task %d panicked: %v", p.index, p.value))
	}
	joined := make([]error, 0, len(errs))
	for i, err := range errs {
		if err != nil {
			joined = append(joined, &TaskError{Index: i, Err: err})
		}
	}
	return errors.Join(joined...)
}

// Map runs fn for task indices 0..n-1 on the pool and returns the
// results in task-index order, so the output is identical for any worker
// count. Error and panic semantics match Run; results of failed tasks
// are the zero value.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Run(n, workers, func(i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	})
	return out, err
}
