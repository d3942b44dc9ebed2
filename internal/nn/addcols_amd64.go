package nn

// addCols adds a[k]·w[k][o] into y[o] for k = 0 … n-1, k ascending, for
// every output o: one pass over y for up to colsPerPass columns, each
// w[k] at least len(y) long. The amd64 kernel (addcols_amd64.s) takes
// four outputs per SSE2 step, rounding every product before adding it,
// so each output gets the float32 sequence the portable loop
// (addcols_other.go) performs.
//
//go:noescape
func addCols(y []float32, w *[colsPerPass][]float32, a *[colsPerPass]float32, n int)
