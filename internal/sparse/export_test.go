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

// Analyses returns the analyses of a under the elimination orders of
// testAnalyses: natural, a permutation drawn from seed, minimum degree.
func Analyses(a *CSC, seed int64) []*LDLSymbolic { return testAnalyses(a, seed) }

// OrderNames names the orders of Analyses, in its order.
var OrderNames = orderNames

// KernelFixtures returns the package tests' named synthetic matrices.
func KernelFixtures(seed int64) []kernelFixture { return kernelFixtures(seed) }

// MatchMinDegree compares the minimum-degree permutation of a with the
// map-based reference ordering and describes their first difference,
// nil when they are identical.
func MatchMinDegree(a *CSC) error { return matchMinDegree(a) }

// MinDegreeFixtures returns the random patterns the ordering tests run on.
func MinDegreeFixtures(seed int64) []kernelFixture { return minDegreeFixtures(seed) }

// Supernodes returns the number of supernodes and the number of columns
// inside those at least two columns wide.
func (s *LDLSymbolic) Supernodes() (count, panelCols int) {
	count = len(s.snStart) - 1
	for sn := 0; sn < count; sn++ {
		if w := s.snStart[sn+1] - s.snStart[sn]; w > 1 {
			panelCols += w
		}
	}
	return count, panelCols
}

// Updates returns the number of source→destination supernode updates
// one factorization applies: the entries of every update program.
func (s *LDLSymbolic) Updates() int { return len(s.upd) }
