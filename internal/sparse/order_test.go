package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// The textbook exact minimum-degree ordering, kept as the reference
// TestMinDegreeMatchesReference and FuzzMinDegreeMatchesReference compare
// minDegreeOrder with: the elimination graph is one map of neighbours per
// variable, and eliminating the live variable of least degree (the lowest
// index among equals) joins its neighbours pairwise.
func minDegreeReference(a *CSC) []int {
	n := a.NRows
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowIdx[p]; i != j {
				adj[i][j], adj[j][i] = true, true
			}
		}
	}
	eliminated := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		v := -1
		for i := 0; i < n; i++ {
			if !eliminated[i] && (v < 0 || len(adj[i]) < len(adj[v])) {
				v = i
			}
		}
		order = append(order, v)
		eliminated[v] = true
		for u := range adj[v] {
			delete(adj[u], v)
			for w := range adj[v] {
				if w != u {
					adj[u][w] = true
				}
			}
		}
		adj[v] = nil
	}
	return order
}

// matchMinDegree describes the first position where the production
// minimum-degree permutation of a differs from the reference's, nil when
// they are identical.
func matchMinDegree(a *CSC) error {
	got, want := minDegreeOrder(a), minDegreeReference(a)
	if len(got) != len(want) {
		return fmt.Errorf("permutation length %d, reference %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			return fmt.Errorf("n=%d: pivot %d is column %d, reference %d", a.NRows, k, got[k], want[k])
		}
	}
	return nil
}

// randSquarePattern draws an unsymmetric n×n pattern with about perCol
// off-diagonal entries a column, some diagonals missing and some
// variables isolated, so ties, empty rows and one-sided edges all occur.
func randSquarePattern(r *rand.Rand, n, perCol int) *CSC {
	b := NewBuilder(n, n)
	for j := 0; j < n; j++ {
		if r.Intn(4) != 0 {
			b.Append(j, j, 1)
		}
		if r.Intn(10) == 0 {
			continue
		}
		for k := r.Intn(perCol + 1); k > 0; k-- {
			b.Append(r.Intn(n), j, 1)
		}
	}
	return b.ToCSC()
}

// minDegreeFixtures returns the random patterns TestMinDegreeMatchesReference
// runs on: unsymmetric patterns of several densities (64 and 65 columns
// straddle a bitset word) and the kernel tests' synthetic systems.
func minDegreeFixtures(seed int64) []kernelFixture {
	r := rand.New(rand.NewSource(seed))
	var fx []kernelFixture
	for _, n := range []int{1, 2, 7, 63, 64, 65, 130, 200} {
		for _, perCol := range []int{1, 3, 8} {
			fx = append(fx, kernelFixture{fmt.Sprintf("random n=%d perCol=%d", n, perCol), randSquarePattern(r, n, perCol)})
		}
	}
	return append(fx, kernelFixtures(seed)...)
}

// Fuzz: arbitrary seeds, sizes and densities become unsymmetric
// patterns; the production ordering must be the reference's permutation.
// The seed corpus runs as a normal test; explore with
// `go test -run '^$' -fuzz '^FuzzMinDegreeMatchesReference$' ./internal/sparse`.
func FuzzMinDegreeMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(2))
	f.Add(int64(4), uint8(64), uint8(1))
	f.Add(int64(-9), uint8(129), uint8(6))
	f.Add(int64(23), uint8(200), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, density uint8) {
		r := rand.New(rand.NewSource(seed))
		a := randSquarePattern(r, 1+int(nRaw), int(density)%16)
		if err := matchMinDegree(a); err != nil {
			t.Fatal(err)
		}
	})
}
