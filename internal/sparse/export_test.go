package sparse

// FactorValues exposes the stored factor values — strict L and the
// pivots — to the external tests that compare factorizations bit for bit.
func FactorValues(f *LDLFactors) (l, d []float64) { return f.lx, f.d }

// RaceEnabled reports whether the race detector is on, for the external
// tests' allocation counts.
const RaceEnabled = raceEnabled

// MatchColumnKernel factors a on s with FactorInto and with the
// column-at-a-time reference kernel and describes their first
// difference, nil when the factors are bit-identical.
func MatchColumnKernel(s *LDLSymbolic, a *CSC) error { return matchColumnKernel(s, a) }

// KernelFixtures returns the package tests' named synthetic matrices.
func KernelFixtures(seed int64) []kernelFixture { return kernelFixtures(seed) }
