package sparse

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrPatternChanged is returned by RefactorInto when the matrix does not
// have the sparsity pattern the Symbolic was analyzed for.
var ErrPatternChanged = errors.New("sparse: matrix pattern differs from the analyzed pattern")

// ErrRefactorUnstable is returned by RefactorInto when a frozen pivot
// has decayed below the stability floor for the new numeric values. The
// pattern is still valid; callers should fall back to a fresh Analyze,
// which re-picks pivots (a CacheHandle does this automatically).
var ErrRefactorUnstable = errors.New("sparse: frozen pivot sequence unstable for these values")

// refactorPivotFloor is the minimum acceptable ratio of a frozen pivot's
// magnitude to the largest candidate in its column. A fresh threshold
// factorization guarantees ratio ≥ tol; refactorization accepts decay
// down to this floor before declaring the pivot sequence stale.
const refactorPivotFloor = 1e-10

// boostPivotRel is the static pivot perturbation scale for boosted
// (pivot-shaped) refactorizations: a decayed pivot is replaced by
// ±boostPivotRel·colmax, bounding element growth at 1/boostPivotRel.
// √machine-epsilon is the classic static-pivoting choice (SuperLU_DIST
// uses √ε·‖A‖): it splits the 16 available digits evenly between the
// perturbation and the growth it permits.
const boostPivotRel = 1e-8

// pattern is a stored sparsity pattern for exact match checks.
type pattern struct {
	n      int
	colPtr []int
	rowIdx []int
}

func patternOf(a *CSC) pattern {
	return pattern{
		n:      a.NRows,
		colPtr: append([]int(nil), a.ColPtr...),
		rowIdx: append([]int(nil), a.RowIdx...),
	}
}

// matches reports whether a has exactly this pattern. O(nnz) integer
// comparison — negligible next to a factorization.
func (pt *pattern) matches(a *CSC) bool {
	if a.NRows != pt.n || a.NCols != pt.n || len(a.RowIdx) != len(pt.rowIdx) {
		return false
	}
	for i, v := range a.ColPtr {
		if pt.colPtr[i] != v {
			return false
		}
	}
	for i, v := range a.RowIdx {
		if pt.rowIdx[i] != v {
			return false
		}
	}
	return true
}

// Symbolic is the reusable, value-independent-in-structure part of a
// sparse LU: the fill-reducing column ordering, the row-pivot sequence
// frozen by the analyzing factorization, and the exact nonzero patterns
// of L and U (each U column stored in a valid elimination order). It is
// immutable after Analyze and safe to share; RefactorInto redoes only
// the numeric work — no ordering, no DFS, no pivot search, no index
// allocation — which is what makes the per-iteration KKT solve cheap.
//
// Because the pivot sequence was chosen for the analyzed matrix's
// values, reusing an Analyze'd Symbolic across solves makes results
// depend on which matrix was analyzed first. Deterministic callers
// therefore either keep it to one solve (pf does, per Newton solve) or
// analyze a matrix whose values are a function of the pattern alone —
// what a SymbolicCache does for the KKT systems of every solve of a
// grid.
type Symbolic struct {
	n       int
	q, pinv []int
	lp, up  []int
	li, ui  []int // row indices in pivot coordinates
	tol     float64
	pat     pattern
	// boost enables static pivot perturbation during refactorization
	// (SuperLU_DIST-style): a frozen pivot that decays below
	// boostPivotRel of its column's magnitude is replaced by
	// ±boostPivotRel·colmax instead of aborting with
	// ErrRefactorUnstable. Set only on pivot-shaped symbolics, whose
	// diagonal sequences are chosen from the pattern surrogate rather
	// than any particular values: the occasional lopsided iterate (a
	// barrier weight at 1e12, a multiplier-free diagonal at 1e-10) then
	// costs a bounded O(boostPivotRel) perturbation of that column —
	// absorbed by the outer Newton iteration — instead of a full
	// re-analysis onto a value-pivoted sequence with severalfold worse
	// fill.
	boost bool

	// blk caches the blocked-kernel schedule (supernode partition,
	// aligned row order, per-column consumption programs). Built lazily
	// on first use; a pure function of the frozen pattern, so a benign
	// build race stores identical schedules. See blocked.go.
	blk atomic.Pointer[blockedSchedule]
}

// Analyze computes a full LU factorization of a and extracts its symbolic
// skeleton for reuse. The returned factors are exactly those of
// FactorizeOpts(a, ord, tol); the Symbolic shares their index structure.
func Analyze(a *CSC, ord Ordering, tol float64) (*Symbolic, *LUFactors, error) {
	return AnalyzePerm(a, permFor(a, ord), tol)
}

// AnalyzePerm is Analyze with an explicit column pre-ordering (see
// FactorizePerm).
func AnalyzePerm(a *CSC, q []int, tol float64) (*Symbolic, *LUFactors, error) {
	f, err := FactorizePerm(a, q, tol)
	if err != nil {
		return nil, nil, err
	}
	s := &Symbolic{
		n: f.n, q: f.q, pinv: f.pinv,
		lp: f.lp, up: f.up, li: f.li, ui: f.ui,
		tol: tol,
		pat: patternOf(a),
	}
	return s, f, nil
}

// PatternMatches reports whether a has exactly the sparsity pattern this
// Symbolic was analyzed for.
func (s *Symbolic) PatternMatches(a *CSC) bool { return s.pat.matches(a) }

// N returns the matrix dimension the Symbolic was analyzed for.
func (s *Symbolic) N() int { return s.n }

// NNZ returns the fill of the analyzed factorization: total stored
// entries of L and U.
func (s *Symbolic) NNZ() int { return len(s.li) + len(s.ui) }

// PatternNNZ returns the stored entries of the analyzed matrix pattern.
func (s *Symbolic) PatternNNZ() int { return len(s.pat.rowIdx) }

// CacheStats counts symbolic-reuse work. Refactors/(Analyses+Refactors)
// is the reuse rate; Fallbacks counts refactorizations abandoned for
// numerical reasons and replaced by a fresh analysis; Orderings counts
// fill-reducing orderings computed.
type CacheStats struct {
	Analyses  uint64 // full factorizations (pattern analysis + pivoting)
	Refactors uint64 // numeric-only refactorizations on a cached pattern
	Fallbacks uint64 // refactor attempts that had to re-analyze
	Orderings uint64 // fill-reducing orderings computed from scratch
}

// Add returns s + o, counter by counter.
func (s CacheStats) Add(o CacheStats) CacheStats {
	return CacheStats{
		Analyses: s.Analyses + o.Analyses, Refactors: s.Refactors + o.Refactors,
		Fallbacks: s.Fallbacks + o.Fallbacks, Orderings: s.Orderings + o.Orderings,
	}
}

// Sub returns s − o, counter by counter: what was counted since the
// snapshot o of the same counters.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		Analyses: s.Analyses - o.Analyses, Refactors: s.Refactors - o.Refactors,
		Fallbacks: s.Fallbacks - o.Fallbacks, Orderings: s.Orderings - o.Orderings,
	}
}

// SymbolicCache is the KKT analysis of one topology: the fill-reducing
// ordering of its sparsity pattern and the pivot-shaped Symbolic frozen
// on it, plus the reuse counters of every solve that went through it.
// One cache publishes one analysis — that of the first pattern it, or a
// cache derived from it, meets — and both halves of it are pure
// functions of the pattern: the ordering is computed from it, and the
// pivot sequence is frozen on the pattern-derived surrogate
// (pivotSurrogate), not on the first matrix seen. So one cache serves
// every solve of a grid's load variants, concurrently, without making
// any result depend on which solve populated it. Two further
// consequences of shaping:
//
//   - Diagonally grounded patterns order better. The surrogate's
//     dominant stored diagonals keep pivots on the diagonal wherever
//     the pattern has one, so fill tracks the symmetric-elimination
//     prediction minimum-degree orderings optimize — on quasi-definite
//     KKT systems this is several times less fill than pivots frozen at
//     an interior-point iterate's lopsided values.
//   - A decayed shaped pivot is perturbed, not abandoned (see
//     Symbolic.boost); only values that make a column numerically
//     singular reject the shaped sequence, and those fall back to a
//     value-pivoted analysis that stays private to the solve that needed
//     it (counted in Fallbacks), so the cache stays pattern-pure.
//
// Solves do not call the cache directly: each takes a CacheHandle.
type SymbolicCache struct {
	ord Ordering
	// root owns the analysis this cache's matrices are factored on: the
	// cache itself, or the one it was derived from (see Derive).
	root *SymbolicCache
	// sym is the root's one published analysis, made under mu by the
	// first handle of the root or of any cache derived from it.
	sym atomic.Pointer[Symbolic]

	mu    sync.Mutex
	stats CacheStats
}

// NewSymbolicCache returns an empty cache that analyzes under ord.
func NewSymbolicCache(ord Ordering) *SymbolicCache {
	c := &SymbolicCache{ord: ord}
	c.root = c
	return c
}

// Derive returns a cache with its own counters and c's analysis, for a
// variant of c's structure whose matrices have c's sparsity pattern — a
// grid with a branch out whose admittance entries are kept as explicit
// zeros. A cache derived from a derived one shares the same root. The
// root's analysis is made by whichever handle of the root or of any of
// its derivations factors first, and counted on the root; a matrix of
// another pattern is analyzed privately by the handle that meets it,
// exactly as through a fresh cache, so correctness never depends on the
// patterns matching.
func (c *SymbolicCache) Derive() *SymbolicCache {
	return &SymbolicCache{ord: c.ord, root: c.root}
}

// Ordering returns the fill-reducing ordering the cache analyzes with.
func (c *SymbolicCache) Ordering() Ordering { return c.ord }

// Symbolic returns the Symbolic the cache's matrices are factored on —
// its root's analysis — or nil before the first factorization.
func (c *SymbolicCache) Symbolic() *Symbolic { return c.root.sym.Load() }

// Stats returns the aggregated counters of every closed handle, plus the
// analysis the cache published as a root.
func (c *SymbolicCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// shaped is the pivot-shaped analysis of a's pattern under ord (see
// pivotSurrogate), or nil and the ordering to analyze a under with its
// own values when the surrogate is singular.
func shaped(a *CSC, ord Ordering) (*Symbolic, []int) {
	q := permFor(a, ord)
	sym, _, err := AnalyzePerm(pivotSurrogate(a), q, 1.0)
	if err != nil {
		return nil, q
	}
	sym.boost = true
	return sym, q
}

// publish returns the root's analysis, making it from a's pattern if the
// root has none yet — under the root's lock, so racing first handles of
// the root and of its derivations analyze once, and counted on the root
// whichever came first; made reports whether this call made it. Nil when
// the surrogate was singular, with the ordering it was tried under.
func (c *SymbolicCache) publish(a *CSC) (sym *Symbolic, q []int, made bool) {
	r := c.root
	r.mu.Lock()
	defer r.mu.Unlock()
	if sym = r.sym.Load(); sym != nil {
		return sym, nil, false
	}
	r.stats.Orderings++
	if sym, q = shaped(a, r.ord); sym == nil {
		return nil, q, false
	}
	r.stats.Analyses++
	r.sym.Store(sym)
	return sym, nil, true
}

// Handle returns the view of c one sequential factorization stream —
// one interior-point solve — works through: the cache's analysis, what
// the stream had to analyze for itself, and the stream's counters, which
// reach c when the handle is closed. Not for sharing across goroutines.
func (c *SymbolicCache) Handle() *CacheHandle { return &CacheHandle{c: c} }

// CacheHandle is one solve's view of a SymbolicCache (see Handle).
type CacheHandle struct {
	c *SymbolicCache
	// own is the one analysis private to this stream: the value-pivoted
	// replacement for pivots its values rejected, or the analysis of a
	// pattern that is not the root's. A newer one replaces it.
	own   *Symbolic
	stats CacheStats
}

// Close folds the stream's counters into the cache. Calling it again
// adds only what was counted since.
func (h *CacheHandle) Close() {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	h.c.stats = h.c.stats.Add(h.stats)
	h.stats = CacheStats{}
}

// lookup returns the analysis the stream factors a's pattern on, or nil:
// its own first — on the root's pattern, the fallback for rejected pivots.
func (h *CacheHandle) lookup(a *CSC) *Symbolic {
	if h.own != nil && h.own.pat.matches(a) {
		return h.own
	}
	if s := h.c.root.sym.Load(); s != nil && s.pat.matches(a) {
		return s
	}
	return nil
}

// FactorSlot holds per-pattern preallocated factors and workspace for
// FactorizeInto. One slot serves one sequential factorization stream
// at a time and may outlive it (mips pools slots across solves); the
// factors returned through it are valid until the next FactorizeInto
// call on the same slot.
type FactorSlot struct {
	sym *Symbolic
	f   *LUFactors
	ws  *RefactorWorkspace
}

func (sl *FactorSlot) bind(sym *Symbolic) {
	sl.sym = sym
	sl.f = &LUFactors{}
	sl.ws = sym.NewRefactorWorkspace()
}

// FactorizeInto returns an LU of a in slot's preallocated storage:
// a numeric refactorization (the automatically selected kernel, scalar
// or blocked — see Symbolic.Blocked) on the root's analysis, which the
// first factorization through the root or any of its derivations makes
// from its pattern and publishes (see Derive); a root holds one pattern,
// so the analysis of another stays with this handle, counted and never
// published. The steady-state path (slot bound to the analysis) performs
// zero allocations. The returned factors are valid until the next call.
func (h *CacheHandle) FactorizeInto(slot *FactorSlot, a *CSC) (*LUFactors, error) {
	sym, analyzed := h.lookup(a), false
	if sym == nil {
		var q []int
		sym, q, analyzed = h.c.publish(a)
		if sym != nil && !sym.pat.matches(a) {
			// The root holds another pattern: this one is the stream's alone.
			h.stats.Orderings++
			if sym, q = shaped(a, h.c.ord); sym != nil {
				h.stats.Analyses++
				h.own, analyzed = sym, true
			}
		}
		if sym == nil {
			return h.analyzeValue(slot, a, q)
		}
	}
	if slot.sym != sym {
		slot.bind(sym)
	}
	if err := sym.RefactorAutoInto(slot.f, slot.ws, a); err != nil {
		// These values reject the frozen pivots (a numerically singular
		// column, or a stale value-pivoted sequence): re-pick them.
		h.stats.Fallbacks++
		return h.analyzeValue(slot, a, sym.q)
	}
	if !analyzed {
		h.stats.Refactors++
	}
	return slot.f, nil
}

// analyzeValue analyzes a with its real values choosing the pivots and
// keeps the result in the handle only: value-derived pivot sequences in
// the shared cache would make one solve's results depend on another's
// values.
func (h *CacheHandle) analyzeValue(slot *FactorSlot, a *CSC, q []int) (*LUFactors, error) {
	sym, f, err := AnalyzePerm(a, q, 1.0)
	if err != nil {
		return nil, err
	}
	h.stats.Analyses++
	h.own = sym
	// Bind the slot for the refactorizations that follow; the analyzing
	// factors themselves are freshly allocated.
	slot.bind(sym)
	return f, nil
}
