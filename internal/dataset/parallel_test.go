package dataset

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/grid"
)

// TestGenerateParallelEquivalence: the parallel path must produce a
// bit-identical dataset to the sequential path under the same seed —
// every sample field except the wall-clock SolveTime.
func TestGenerateParallelEquivalence(t *testing.T) {
	const n = 24
	seq, err := Generate(grid.Case9(), Options{N: n, Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Generate(grid.Case9(), Options{N: n, Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Samples) != len(par.Samples) || seq.Failed != par.Failed {
		t.Fatalf("sample counts differ: seq %d/%d failed, par %d/%d failed",
			len(seq.Samples), seq.Failed, len(par.Samples), par.Failed)
	}
	for i := range seq.Samples {
		a, b := &seq.Samples[i], &par.Samples[i]
		if a.Cost != b.Cost || a.Iterations != b.Iterations {
			t.Fatalf("sample %d: cost/iter differ (%v/%d vs %v/%d)",
				i, a.Cost, a.Iterations, b.Cost, b.Iterations)
		}
		vecs := []struct {
			name string
			x, y []float64
		}{
			{"Factors", a.Factors, b.Factors},
			{"Input", a.Input, b.Input},
			{"X", a.X, b.X},
			{"Lam", a.Lam, b.Lam},
			{"Mu", a.Mu, b.Mu},
			{"Z", a.Z, b.Z},
		}
		for _, v := range vecs {
			if len(v.x) != len(v.y) {
				t.Fatalf("sample %d: %s length differs", i, v.name)
			}
			for j := range v.x {
				if v.x[j] != v.y[j] {
					t.Fatalf("sample %d: %s[%d] = %v sequential vs %v parallel",
						i, v.name, j, v.x[j], v.y[j])
				}
			}
		}
	}
}

// BenchmarkGenerate measures dataset generation at 1 worker, 4 workers
// and all cores — on a ≥4-core host the 4-worker run shows the >2×
// speedup the batch engine exists for. Run with
//
//	go test -bench BenchmarkGenerate -benchtime 1x ./internal/dataset/
func BenchmarkGenerate(b *testing.B) {
	counts := []int{1, 4}
	if all := runtime.GOMAXPROCS(0); all > 4 {
		counts = append(counts, all)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Generate(grid.Case9(), Options{N: 64, Seed: 7, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
