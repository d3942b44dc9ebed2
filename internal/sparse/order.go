package sparse

import (
	"fmt"
	"math/bits"
)

// Ordering names the fill-reducing symmetric pre-ordering of a KKT
// analysis. It has one value, OrderMinDegree, the zero value: every
// AnalyzeLDL orders by exact minimum degree. The type is kept for the
// callers that report the ordering by name.
type Ordering int

// OrderMinDegree is the exact minimum-degree ordering on the elimination
// graph of A+Aᵀ: each step eliminates the variable with the fewest
// neighbours among those not yet eliminated, the lowest index among
// equals (George & Liu, SIAM Review 1989). On the reduced KKT patterns
// MIPS factors it stores 0.22–0.88× the entries reverse Cuthill–McKee
// did, with fewer flops on every embedded system (TestKKTOrderingFill).
const OrderMinDegree Ordering = 0

// String returns the ordering's name as reports and BENCH_*.json spell it.
func (o Ordering) String() string {
	if o == OrderMinDegree {
		return "mindegree"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// minDegreeOrder computes an exact minimum-degree ordering on the
// elimination graph of the symmetrized pattern of a: each step eliminates
// the live variable with the fewest live neighbours (the lowest index
// among equals) and joins its neighbours into a clique. A variable's
// neighbours are one bitset row of ⌈n/64⌉ words, so forming the clique is
// a row OR per neighbour and a degree is a popcount (n·⌈n/64⌉ words in
// all: 4.4 MB, transient, for case1354's KKT).
func minDegreeOrder(a *CSC) []int {
	n := a.NRows
	w := (n + 63) / 64
	rows := make([]uint64, n*w)
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowIdx[p]; i != j {
				rows[i*w+j/64] |= 1 << (j % 64)
				rows[j*w+i/64] |= 1 << (i % 64)
			}
		}
	}
	deg := make([]int, n) // n marks an eliminated variable
	for v := range deg {
		for _, x := range rows[v*w : (v+1)*w] {
			deg[v] += bits.OnesCount64(x)
		}
	}
	order := make([]int, 0, n)
	for len(order) < n {
		v := 0
		for i, d := range deg {
			if d < deg[v] {
				v = i
			}
		}
		order = append(order, v)
		deg[v] = n
		rv := rows[v*w : (v+1)*w]
		for k, x := range rv {
			for ; x != 0; x &= x - 1 {
				u := k*64 + bits.TrailingZeros64(x)
				ru := rows[u*w : (u+1)*w]
				for i := range ru {
					ru[i] |= rv[i]
				}
				ru[u/64] &^= 1 << (u % 64)
				ru[v/64] &^= 1 << (v % 64)
				deg[u] = 0
				for _, y := range ru {
					deg[u] += bits.OnesCount64(y)
				}
			}
		}
	}
	return order
}
