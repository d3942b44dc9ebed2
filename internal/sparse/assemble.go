package sparse

// CompileSlots compiles a coordinate sequence into the CSC pattern it
// assembles to and its slot map: entry k, at (rows[k], cols[k]), lands
// in the pattern's Val[pos[k]]. Duplicates share a slot. This is the
// structural half of assembling a matrix whose pattern is fixed while
// its values change — interior-point KKT systems, Jacobians and
// Hessians re-evaluated every iteration: compile the sequence once per
// problem structure, then every pass is a value stamp with no sort and
// no allocation,
//
//	clear(m.Val)
//	for k, v := range values { m.Val[pos[k]] += v }
//
// which sums each slot's duplicates in sequence order: the stamp is bit
// for bit the ToCSC of a Builder fed the same Append sequence. Rows are
// ascending within each column and the returned matrix's Val is zeroed.
func CompileSlots(nrows, ncols int, rows, cols []int32) (m *CSC, pos []int32) {
	if len(rows) != len(cols) {
		panic("sparse: CompileSlots coordinate slices differ in length")
	}
	n := len(rows)
	for k := range rows {
		if rows[k] < 0 || int(rows[k]) >= nrows || cols[k] < 0 || int(cols[k]) >= ncols {
			panic("sparse: CompileSlots entry outside matrix")
		}
	}
	m = &CSC{NRows: nrows, NCols: ncols, ColPtr: make([]int, ncols+1)}
	// Stable counting distribution of entry indices by column.
	for _, j := range cols {
		m.ColPtr[j+1]++
	}
	for j := 0; j < ncols; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	idx := make([]int32, n)
	next := make([]int, ncols)
	copy(next, m.ColPtr[:ncols])
	for k, j := range cols {
		idx[next[j]] = int32(k)
		next[j]++
	}
	pos = make([]int32, n)
	m.RowIdx = make([]int, 0, n)
	for j := 0; j < ncols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		seg := idx[lo:hi]
		// Stable insertion sort by row: equal rows keep ascending entry
		// order, so a slot's duplicates sum in sequence order.
		for t := 1; t < len(seg); t++ {
			k := seg[t]
			r := rows[k]
			u := t - 1
			for u >= 0 && rows[seg[u]] > r {
				seg[u+1] = seg[u]
				u--
			}
			seg[u+1] = k
		}
		m.ColPtr[j] = len(m.RowIdx) // rewrite to deduplicated offsets
		for _, k := range seg {
			r := int(rows[k])
			if len(m.RowIdx) == m.ColPtr[j] || m.RowIdx[len(m.RowIdx)-1] != r {
				m.RowIdx = append(m.RowIdx, r)
			}
			pos[k] = int32(len(m.RowIdx) - 1)
		}
	}
	m.ColPtr[ncols] = len(m.RowIdx)
	m.Val = make([]float64, len(m.RowIdx))
	return m, pos
}
