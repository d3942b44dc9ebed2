package sparse

import (
	"fmt"
	"math/bits"
)

// Ordering selects the fill-reducing symmetric pre-ordering of a
// factorization. The zero value is OrderRCM, the library-wide default.
type Ordering int

const (
	// OrderRCM applies reverse Cuthill–McKee on the pattern of A+Aᵀ,
	// reducing bandwidth (and with it fill) on the mesh-like matrices that
	// arise from power networks and their KKT systems.
	OrderRCM Ordering = iota
	// OrderNatural factors the matrix as given.
	OrderNatural
	// OrderMinDegree applies an exact minimum-degree ordering on the
	// elimination graph of A+Aᵀ: each step eliminates the variable with
	// the fewest neighbours among those not yet eliminated, the lowest
	// index among equals (George & Liu, SIAM Review 1989). opf analyzes
	// every KKT system under it (the measured fills are at opf.Prepare),
	// at a higher one-off analysis cost than RCM — exactly the trade the
	// symbolic/numeric split amortizes.
	OrderMinDegree
)

// String returns the ordering's name as reports and BENCH_*.json spell it.
func (o Ordering) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderRCM:
		return "rcm"
	case OrderMinDegree:
		return "mindegree"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// permFor computes the column pre-ordering for a square matrix. The
// returned slice lists original column indices in their new order.
func permFor(a *CSC, ord Ordering) []int {
	switch ord {
	case OrderRCM:
		return rcmOrder(a)
	case OrderMinDegree:
		return minDegreeOrder(a)
	default:
		q := make([]int, a.NCols)
		for i := range q {
			q[i] = i
		}
		return q
	}
}

// symAdjacency builds the adjacency lists of the undirected graph of
// A+Aᵀ without self loops.
func symAdjacency(a *CSC) [][]int {
	n := a.NRows
	adj := make([][]int, n)
	seen := make(map[[2]int]struct{}, a.NNZ()*2)
	addEdge := func(i, j int) {
		if i == j {
			return
		}
		k := [2]int{i, j}
		if _, ok := seen[k]; ok {
			return
		}
		seen[k] = struct{}{}
		adj[i] = append(adj[i], j)
	}
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			addEdge(i, j)
			addEdge(j, i)
		}
	}
	return adj
}

// rcmOrder computes a reverse Cuthill–McKee ordering on the symmetrized
// pattern of a. The returned slice q lists original column indices in
// their new order.
func rcmOrder(a *CSC) []int {
	n := a.NRows
	adj := symAdjacency(a)
	deg := make([]int, n)
	for i := range adj {
		deg[i] = len(adj[i])
	}
	visited := make([]bool, n)
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for {
		// Find the unvisited node of minimum degree as the next BFS root.
		root := -1
		for i := 0; i < n; i++ {
			if !visited[i] && (root == -1 || deg[i] < deg[root]) {
				root = i
			}
		}
		if root == -1 {
			break
		}
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			// Append unvisited neighbours in increasing-degree order.
			nbrs := make([]int, 0, len(adj[v]))
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			for i := 1; i < len(nbrs); i++ {
				for j := i; j > 0 && deg[nbrs[j]] < deg[nbrs[j-1]]; j-- {
					nbrs[j], nbrs[j-1] = nbrs[j-1], nbrs[j]
				}
			}
			queue = append(queue, nbrs...)
		}
	}
	// Reverse for RCM.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
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
