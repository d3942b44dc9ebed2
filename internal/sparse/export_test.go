package sparse

// FactorValues exposes the stored factor values — strict L and the
// pivots — to the external tests that compare factorizations bit for bit.
func FactorValues(f *LDLFactors) (l, d []float64) { return f.lx, f.d }

// RaceEnabled reports whether the race detector is on, for the external
// tests' allocation counts.
const RaceEnabled = raceEnabled
