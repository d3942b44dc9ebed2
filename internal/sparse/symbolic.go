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

// add accumulates o into s.
func (s *CacheStats) add(o CacheStats) {
	s.Analyses += o.Analyses
	s.Refactors += o.Refactors
	s.Fallbacks += o.Fallbacks
	s.Orderings += o.Orderings
}

// symbolicCacheCap bounds how many distinct patterns one cache retains.
// The KKT loop needs one (its pattern is invariant under the Tikhonov
// retry); a little headroom covers callers that interleave a few
// structures through one cache.
const symbolicCacheCap = 4

// symList is a most-recently-used list of symbolics keyed by the
// pattern each was analyzed for.
type symList []*Symbolic

// lookup returns the symbolic for a's pattern, bumped to the MRU
// position, or nil.
func (l symList) lookup(a *CSC) *Symbolic {
	for i, s := range l {
		if s.PatternMatches(a) {
			copy(l[1:i+1], l[:i])
			l[0] = s
			return s
		}
	}
	return nil
}

// insert places sym at the MRU position, replacing an existing entry for
// a's pattern and evicting the oldest beyond the cap.
func (l *symList) insert(sym *Symbolic, a *CSC) {
	if l.lookup(a) != nil {
		(*l)[0] = sym
		return
	}
	*l = append(*l, nil)
	copy((*l)[1:], *l)
	(*l)[0] = sym
	if len(*l) > symbolicCacheCap {
		*l = (*l)[:symbolicCacheCap]
	}
}

// SymbolicCache is the KKT analysis of one topology: for each sparsity
// pattern it has seen, the fill-reducing ordering and the pivot-shaped
// Symbolic frozen on it, plus the reuse counters of every solve that
// went through it. Both halves of an entry are pure functions of the
// pattern — the ordering is computed from it, and the pivot sequence is
// frozen on the pattern-derived surrogate (pivotSurrogate), not on the
// first matrix seen — so one cache serves every solve of a grid's load
// variants, concurrently, without making any result depend on which
// solve populated it. Two further consequences of shaping:
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

	mu    sync.Mutex
	syms  symList // pivot-shaped entries only
	stats CacheStats
}

// NewSymbolicCache returns an empty cache that analyzes new patterns
// under the given fill-reducing ordering.
func NewSymbolicCache(ord Ordering) *SymbolicCache {
	return &SymbolicCache{ord: ord}
}

// Ordering returns the fill-reducing ordering the cache analyzes with.
func (c *SymbolicCache) Ordering() Ordering { return c.ord }

// Stats returns the aggregated counters of every closed handle.
func (c *SymbolicCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *SymbolicCache) lookup(a *CSC) *Symbolic {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syms.lookup(a)
}

// insert publishes a shaped symbolic. Racing inserts of one pattern
// store identical symbolics (pure functions of the pattern), so the
// replace keeps the cache correct either way.
func (c *SymbolicCache) insert(sym *Symbolic, a *CSC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syms.insert(sym, a)
}

// Handle returns the view of c one sequential factorization stream —
// one interior-point solve — works through. Entries the stream uses are
// pinned in the handle, so a pattern evicted from a busy cache (a
// parallel contingency sweep cycling more patterns than the MRU
// retains) cannot force a mid-solve re-analysis; value-pivoted fallback
// analyses live only here; and the stream's counters reach c when the
// handle is closed. A handle must not be shared across goroutines.
func (c *SymbolicCache) Handle() *CacheHandle { return &CacheHandle{c: c} }

// CacheHandle is one solve's view of a SymbolicCache (see Handle).
type CacheHandle struct {
	c     *SymbolicCache
	syms  symList // pinned shared entries and local value-pivoted fallbacks
	stats CacheStats
}

// Close folds the stream's counters into the cache. Calling it again
// adds only what was counted since.
func (h *CacheHandle) Close() {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	h.c.stats.add(h.stats)
	h.stats = CacheStats{}
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
// or blocked — see Symbolic.Blocked) on the analysis of a's pattern,
// which is computed and published to the cache on first sight. On the
// steady-state path (pattern pinned, slot bound to it) it performs zero
// allocations. The returned factors are valid until the next call.
func (h *CacheHandle) FactorizeInto(slot *FactorSlot, a *CSC) (*LUFactors, error) {
	sym, analyzed := h.syms.lookup(a), false
	if sym == nil {
		if sym = h.c.lookup(a); sym == nil {
			q := permFor(a, h.c.ord)
			h.stats.Orderings++
			var err error
			if sym, _, err = AnalyzePerm(pivotSurrogate(a), q, 1.0); err != nil {
				return h.analyzeValue(slot, a, q)
			}
			sym.boost = true
			h.stats.Analyses++
			h.c.insert(sym, a)
			analyzed = true
		}
		h.syms.insert(sym, a)
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
	h.syms.insert(sym, a)
	// Bind the slot for the refactorizations that follow; the analyzing
	// factors themselves are freshly allocated.
	slot.bind(sym)
	return f, nil
}
