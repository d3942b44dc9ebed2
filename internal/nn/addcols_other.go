//go:build !amd64

package nn

// addCols adds a[k]·w[k][o] into y[o] for k = 0 … n-1, k ascending, for
// every output o: eight columns in one pass over y, fewer one column per
// pass — the same float32 sequence per output either way.
func addCols(y []float32, w *[colsPerPass][]float32, a *[colsPerPass]float32, n int) {
	out := len(y)
	if n < colsPerPass {
		for k := range n {
			ak, wk := a[k], w[k][:out]
			for o := range y {
				y[o] += ak * wk[o]
			}
		}
		return
	}
	w0, w1, w2, w3 := w[0][:out], w[1][:out], w[2][:out], w[3][:out]
	w4, w5, w6, w7 := w[4][:out], w[5][:out], w[6][:out], w[7][:out]
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	for o, s := range y {
		s += a0 * w0[o]
		s += a1 * w1[o]
		s += a2 * w2[o]
		s += a3 * w3[o]
		s += a4 * w4[o]
		s += a5 * w5[o]
		s += a6 * w6[o]
		s += a7 * w7[o]
		y[o] = s
	}
}
