package batch

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMapDeterministicAcrossWorkerCounts is the engine's core contract:
// a task that mixes its index with draws from its private RNG produces
// bit-identical output for any pool size.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 200
	run := func(workers int) []float64 {
		out, err := Map(n, Options{Workers: workers, Seed: 42}, func(task *Task) (float64, error) {
			v := float64(task.Index)
			for i := 0; i < 5; i++ {
				v += task.RNG.Float64()
			}
			return v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, w := range []int{2, 3, 8, 64} {
		got := run(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result[%d] = %v, sequential ref %v", w, i, got[i], ref[i])
			}
		}
	}
}

// TestTaskSeedStable pins the seed derivation: changing it would silently
// change every generated dataset.
func TestTaskSeedStable(t *testing.T) {
	if TaskSeed(1, 0) == TaskSeed(1, 1) {
		t.Fatal("adjacent task seeds collide")
	}
	if TaskSeed(1, 0) == TaskSeed(2, 0) {
		t.Fatal("base seed does not separate streams")
	}
	if got, want := TaskSeed(0, 0), TaskSeed(0, 0); got != want {
		t.Fatalf("TaskSeed not pure: %d != %d", got, want)
	}
}

// TestErrorAggregation: every failing task is reported, wrapped with its
// index, joined in index order, and successful results survive.
func TestErrorAggregation(t *testing.T) {
	sentinel := errors.New("boom")
	out, err := Map(10, Options{Workers: 4}, func(task *Task) (int, error) {
		if task.Index%3 == 0 {
			return 0, fmt.Errorf("idx %d: %w", task.Index, sentinel)
		}
		return task.Index * 10, nil
	})
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is lost the cause: %v", err)
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 0 {
		t.Fatalf("first TaskError should be index 0, got %+v", te)
	}
	msg := err.Error()
	for _, idx := range []int{0, 3, 6, 9} {
		if !strings.Contains(msg, fmt.Sprintf("task %d:", idx)) {
			t.Fatalf("error for task %d missing from %q", idx, msg)
		}
	}
	if out[1] != 10 || out[4] != 40 {
		t.Fatalf("successful results clobbered: %v", out)
	}
	if out[3] != 0 {
		t.Fatalf("failed task should leave zero value, got %d", out[3])
	}
}

// TestPanicPropagation: a worker panic must surface as a panic in the
// caller's goroutine, naming the task, for both pool shapes.
func TestPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic swallowed", workers)
				}
				if s, ok := r.(string); !ok || !strings.Contains(s, "task 5 panicked: kaput") {
					t.Fatalf("workers=%d: unexpected panic value %v", workers, r)
				}
			}()
			_ = Run(20, Options{Workers: workers}, func(task *Task) error {
				if task.Index == 5 {
					panic("kaput")
				}
				return nil
			})
		}()
	}
}

// TestProgressCallback: OnProgress must fire once per task with a final
// call of (n, n).
func TestProgressCallback(t *testing.T) {
	const n = 50
	var calls atomic.Int64
	var sawFinal atomic.Bool
	err := Run(n, Options{Workers: 8, OnProgress: func(done, total int) {
		calls.Add(1)
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		if done == n {
			sawFinal.Store(true)
		}
	}}, func(task *Task) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != n {
		t.Fatalf("OnProgress fired %d times, want %d", calls.Load(), n)
	}
	if !sawFinal.Load() {
		t.Fatal("never saw done == total")
	}
}

// TestWorkerResolution covers the explicit > env > default > GOMAXPROCS
// chain.
func TestWorkerResolution(t *testing.T) {
	SetDefaultWorkers(0)
	t.Cleanup(func() { SetDefaultWorkers(0) })

	if got := Workers(7); got != 7 {
		t.Fatalf("explicit: got %d", got)
	}
	t.Setenv("PGSIM_WORKERS", "3")
	if got := Workers(0); got != 3 {
		t.Fatalf("env: got %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("explicit beats env: got %d", got)
	}
	t.Setenv("PGSIM_WORKERS", "")
	SetDefaultWorkers(2)
	if got := Workers(0); got != 2 {
		t.Fatalf("SetDefaultWorkers: got %d", got)
	}
	SetDefaultWorkers(0)
	if got := Workers(0); got < 1 {
		t.Fatalf("GOMAXPROCS fallback: got %d", got)
	}
	t.Setenv("PGSIM_WORKERS", "not-a-number")
	if got := Workers(0); got < 1 {
		t.Fatalf("bad env should fall through, got %d", got)
	}
}

// TestRunEmpty: n ≤ 0 is a no-op.
func TestRunEmpty(t *testing.T) {
	called := false
	if err := Run(0, Options{}, func(task *Task) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("task fn called for n=0")
	}
}
