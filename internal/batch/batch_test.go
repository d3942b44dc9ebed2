package batch

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMapDeterministicAcrossWorkerCounts is the engine's core contract:
// for any pool size — one worker, several, more than there are tasks —
// every index runs exactly once and Map returns the results in index
// order.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 200
	for _, w := range []int{1, 2, 3, 8, 64, n + 1} {
		runs := make([]atomic.Int64, n)
		var last atomic.Int64
		last.Store(-1)
		out, err := Map(n, w, func(i int) (int, error) {
			runs[i].Add(1)
			if w == 1 && last.Swap(int64(i)) != int64(i-1) {
				t.Errorf("workers=1: task %d ran out of index order", i)
			}
			return 3*i + 1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if c := runs[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", w, i, c)
			}
			if out[i] != 3*i+1 {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", w, i, out[i], 3*i+1)
			}
		}
	}
}

// TestErrorAggregation: every failing task is reported, wrapped with its
// index, joined in index order, and successful results survive.
func TestErrorAggregation(t *testing.T) {
	sentinel := errors.New("boom")
	out, err := Map(10, 4, func(i int) (int, error) {
		if i%3 == 0 {
			return 0, fmt.Errorf("idx %d: %w", i, sentinel)
		}
		return i * 10, nil
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
	msg, last := err.Error(), -1
	for _, idx := range []int{0, 3, 6, 9} {
		at := strings.Index(msg, fmt.Sprintf("task %d: idx %d:", idx, idx))
		if at <= last {
			t.Fatalf("error for task %d missing or out of index order in %q", idx, msg)
		}
		last = at
	}
	if out[1] != 10 || out[4] != 40 {
		t.Fatalf("successful results clobbered: %v", out)
	}
	if out[3] != 0 {
		t.Fatalf("failed task should leave zero value, got %d", out[3])
	}
}

// TestPanicPropagation: a worker panic must surface as a panic in the
// caller's goroutine, naming the task, for both pool sizes, and stop the
// hand-out of further tasks — with one worker, none after the panicking
// one runs.
func TestPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			var ran atomic.Int64
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic swallowed", workers)
				}
				if s, ok := r.(string); !ok || !strings.Contains(s, "task 5 panicked: kaput") {
					t.Fatalf("workers=%d: unexpected panic value %v", workers, r)
				}
				if workers == 1 && ran.Load() != 6 {
					t.Fatalf("workers=1: %d tasks ran, want 6 (0..5, then the hand-out stops)", ran.Load())
				}
			}()
			_ = Run(20, workers, func(i int) error {
				ran.Add(1)
				if i == 5 {
					panic("kaput")
				}
				return nil
			})
		}()
	}
}

// TestWorkerResolution covers the explicit > default > GOMAXPROCS chain.
func TestWorkerResolution(t *testing.T) {
	SetDefaultWorkers(0)
	t.Cleanup(func() { SetDefaultWorkers(0) })

	if got := Workers(7); got != 7 {
		t.Fatalf("explicit: got %d", got)
	}
	SetDefaultWorkers(2)
	if got := Workers(0); got != 2 {
		t.Fatalf("SetDefaultWorkers: got %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("explicit beats default: got %d", got)
	}
	SetDefaultWorkers(0)
	if got := Workers(0); got < 1 {
		t.Fatalf("GOMAXPROCS fallback: got %d", got)
	}
}

// TestRunEmpty: n ≤ 0 is a no-op.
func TestRunEmpty(t *testing.T) {
	called := false
	if err := Run(0, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("task fn called for n=0")
	}
}
