package sparse

import "fmt"

// Ordering selects the fill-reducing column/row pre-ordering for LU. The
// zero value is OrderRCM, the library-wide default.
type Ordering int

const (
	// OrderRCM applies reverse Cuthill–McKee on the pattern of A+Aᵀ,
	// reducing bandwidth (and with it fill) on the mesh-like matrices that
	// arise from power networks and their KKT systems.
	OrderRCM Ordering = iota
	// OrderNatural factors the matrix as given.
	OrderNatural
	// OrderAMD applies an approximate-minimum-degree ordering on the
	// pattern of A+Aᵀ: at each elimination step the variable of (an upper
	// bound on) minimum degree is eliminated, with the quotient-graph
	// element absorption of Amestoy, Davis & Duff so no explicit fill
	// cliques are formed. opf analyzes every KKT system under it (the
	// measured fills are at opf.Prepare), at a higher one-off analysis
	// cost — exactly the trade the symbolic/numeric split amortizes.
	OrderAMD
)

// String returns the ordering's name as reports and BENCH_*.json spell it.
func (o Ordering) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderRCM:
		return "rcm"
	case OrderAMD:
		return "amd"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// permFor computes the column pre-ordering for a square matrix. The
// returned slice lists original column indices in their new order.
func permFor(a *CSC, ord Ordering) []int {
	switch ord {
	case OrderRCM:
		return rcmOrder(a)
	case OrderAMD:
		return amdOrder(a)
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

// pivotSurrogate builds a matrix with a's exact pattern and
// pattern-derived values: stored diagonal entries get a dominant
// magnitude (well-scaled diagonals keep threshold pivots on the
// diagonal, as in the KKT's Hessian block) and off-diagonals a position
// hash spread over [1, 2) — avoiding the singular all-ones case and
// systematic pivot ties. Structural zeros that matter (absent entries,
// e.g. a KKT matrix's empty trailing diagonal block) still force
// off-diagonal pivoting. The SymbolicCache's pivot-shaped analysis
// factors this surrogate, so the pivot sequence it freezes is a pure
// function of the sparsity pattern.
func pivotSurrogate(a *CSC) *CSC {
	sur := &CSC{NRows: a.NRows, NCols: a.NCols, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: make([]float64, len(a.RowIdx))}
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if i == j {
				sur.Val[p] = float64(2 * a.NRows)
				continue
			}
			h := uint32(i)*2654435761 + uint32(j)*40503
			h ^= h >> 13
			sur.Val[p] = 1 + float64(h%1024)/1024
		}
	}
	return sur
}

// amdOrder computes an approximate-minimum-degree ordering on the
// symmetrized pattern of a, using the quotient-graph formulation: an
// eliminated variable becomes an element whose variable list stands in
// for the fill clique, elements adjacent to the pivot are absorbed into
// the new one, and variable degrees are tracked as the classic AMD upper
// bound |adjacent variables| + Σ over adjacent elements of |element|−1.
func amdOrder(a *CSC) []int {
	n := a.NRows
	varAdj := symAdjacency(a) // plain variable-variable edges, pruned as we go
	varElems := make([][]int, n)
	elemVars := make([][]int, n) // elemVars[v] set when v is eliminated
	live := make([]bool, n)
	absorbed := make([]bool, n)
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		live[i] = true
		deg[i] = len(varAdj[i])
	}
	mark := make([]bool, n)
	order := make([]int, 0, n)

	// compact drops eliminated variables from an element's variable list
	// in place, so repeated scans stay proportional to the live set.
	compact := func(e int) []int {
		vs := elemVars[e][:0]
		for _, w := range elemVars[e] {
			if live[w] {
				vs = append(vs, w)
			}
		}
		elemVars[e] = vs
		return vs
	}

	for len(order) < n {
		// Pick the live variable of minimum approximate degree.
		v := -1
		for i := 0; i < n; i++ {
			if live[i] && (v == -1 || deg[i] < deg[v]) {
				v = i
			}
		}
		order = append(order, v)
		live[v] = false

		// The new element's variables: live plain neighbours of v plus the
		// live variables of every element adjacent to v.
		lv := make([]int, 0, deg[v])
		mark[v] = true
		for _, w := range varAdj[v] {
			if live[w] && !mark[w] {
				mark[w] = true
				lv = append(lv, w)
			}
		}
		for _, e := range varElems[v] {
			if absorbed[e] {
				continue
			}
			for _, w := range compact(e) {
				if !mark[w] {
					mark[w] = true
					lv = append(lv, w)
				}
			}
			absorbed[e] = true
		}
		mark[v] = false
		elemVars[v] = lv

		// Update every variable of the new element: prune its plain edges
		// that the element now covers (lv members are still marked), drop
		// absorbed elements, append the new one, and recompute the
		// approximate degree.
		for _, i := range lv {
			na := varAdj[i][:0]
			nd := 0
			for _, w := range varAdj[i] {
				if live[w] && w != v && !mark[w] {
					na = append(na, w)
					nd++
				}
			}
			varAdj[i] = na
			ne := varElems[i][:0]
			for _, e := range varElems[i] {
				if !absorbed[e] {
					ne = append(ne, e)
				}
			}
			ne = append(ne, v)
			varElems[i] = ne
			for _, e := range ne {
				nd += len(compact(e)) - 1
			}
			deg[i] = nd
		}
		for _, w := range lv {
			mark[w] = false
		}
	}
	return order
}
