// Package batch is the parallel batch-execution engine behind every
// embarrassingly-parallel stage of the reproduction: dataset generation,
// the train/test evaluation sweeps, the Table I ablation grid, the
// synthetic-system construction of casegen and the scaling study all fan
// their per-case work out through this worker pool.
//
// The engine is built for reproducibility first and throughput second:
//
//   - Determinism. Each task receives its own rand.Rand seeded from
//     (base seed, task index) via a splitmix64 mix, so random draws do
//     not depend on how tasks interleave across workers, and Map returns
//     results in task-index order. A run with 1 worker and a run with 64
//     workers produce bit-identical outputs (timing fields aside).
//   - Error aggregation. Every task error is collected and reported —
//     joined in task-index order — rather than aborting at the first
//     failure, matching the workload's "skip unsolvable draws" policy.
//   - Panic propagation. A panic inside a task is recovered in the
//     worker and re-raised in the caller's goroutine with the task index
//     attached, so a crash in a 10k-case sweep still points at the case
//     that caused it.
//
// Worker-count resolution (first positive value wins): the explicit
// Options.Workers, the PGSIM_WORKERS environment variable, the
// process-wide default set by SetDefaultWorkers (the cmd/* -workers
// flag), then GOMAXPROCS. Workers=1 runs tasks inline on the calling
// goroutine — the reference sequential path.
package batch

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Task is the per-invocation context handed to a task function.
type Task struct {
	// Index is the task's position in [0, N); results keyed by Index are
	// scheduling-independent.
	Index int
	// RNG is a private generator seeded deterministically from the pool's
	// base seed and Index. Tasks must draw randomness only from it (or
	// from pre-drawn inputs) to stay reproducible across worker counts.
	RNG *rand.Rand
}

// Options configures one pool run.
type Options struct {
	// Workers is the pool size; 0 defers to PGSIM_WORKERS, then the
	// SetDefaultWorkers value, then GOMAXPROCS. 1 is fully sequential.
	Workers int
	// Seed is the base seed for per-task RNGs (see TaskSeed).
	Seed int64
	// OnProgress, when non-nil, is called after every task completes with
	// the number done so far and the total. Calls are serialized but not
	// ordered by task index.
	OnProgress func(done, total int)
}

// defaultWorkers holds the process-wide pool size installed by
// SetDefaultWorkers (the cmd/* -workers flag); 0 means unset.
var defaultWorkers atomic.Int64

// SetDefaultWorkers installs a process-wide default pool size used when
// Options.Workers is 0 and PGSIM_WORKERS is unset. n ≤ 0 clears it.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers resolves the effective pool size for the given explicit value:
// explicit > PGSIM_WORKERS > SetDefaultWorkers > GOMAXPROCS.
func Workers(explicit int) int {
	if explicit > 0 {
		return explicit
	}
	if s := os.Getenv("PGSIM_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// TaskSeed derives the deterministic RNG seed of task index under base —
// a splitmix64 finalization step, so nearby indices get well-separated
// streams regardless of the base seed.
func TaskSeed(base int64, index int) int64 {
	z := uint64(base) + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
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

// Run executes fn for task indices 0..n-1 on a worker pool and blocks
// until all tasks finish. Task errors do not cancel the run; they are
// collected and returned joined in task-index order (errors.Join), each
// wrapped in a *TaskError. A task panic is re-raised in the caller's
// goroutine after the pool drains.
func Run(n int, opt Options, fn func(t *Task) error) error {
	if n <= 0 {
		return nil
	}
	workers := Workers(opt.Workers)
	if workers > n {
		workers = n
	}

	errs := make([]error, n)
	var done atomic.Int64
	var progressMu sync.Mutex
	var panicked atomic.Pointer[taskPanic]

	runTask := func(idx int) {
		t := &Task{Index: idx, RNG: rand.New(rand.NewSource(TaskSeed(opt.Seed, idx)))}
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &taskPanic{index: idx, value: r})
			}
			d := int(done.Add(1))
			if opt.OnProgress != nil {
				progressMu.Lock()
				opt.OnProgress(d, n)
				progressMu.Unlock()
			}
		}()
		errs[idx] = fn(t)
	}

	if workers == 1 {
		// Sequential reference path: run inline, but keep the panic
		// bookkeeping identical to the pooled path.
		for i := 0; i < n; i++ {
			if panicked.Load() != nil {
				break
			}
			runTask(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range jobs {
					runTask(idx)
				}
			}()
		}
		for i := 0; i < n; i++ {
			if panicked.Load() != nil {
				break // stop feeding a crashed run
			}
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

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
func Map[T any](n int, opt Options, fn func(t *Task) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Run(n, opt, func(t *Task) error {
		v, err := fn(t)
		out[t.Index] = v
		return err
	})
	return out, err
}
