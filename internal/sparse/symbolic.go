package sparse

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/la"
)

// ErrPatternChanged is returned by Refactor when the matrix does not have
// the sparsity pattern the Symbolic was analyzed for.
var ErrPatternChanged = errors.New("sparse: matrix pattern differs from the analyzed pattern")

// ErrRefactorUnstable is returned by Refactor when a frozen pivot has
// decayed below the stability floor for the new numeric values. The
// pattern is still valid; callers should fall back to a fresh Analyze,
// which re-picks pivots (SymbolicCache does this automatically).
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
// immutable after Analyze and safe to share; Refactor redoes only the
// numeric work — no ordering, no DFS, no pivot search, no index
// allocation — which is what makes the per-iteration KKT solve cheap.
//
// Because the pivot sequence was chosen for the analyzed matrix's
// values, reusing a Symbolic across solves makes results depend on which
// matrix was analyzed first. Deterministic callers therefore reuse a
// Symbolic only within one solve (mips does this per interior-point
// solve) and share the value-independent ordering across solves through
// an OrderingCache.
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

// Refactor computes a numeric LU of a on the frozen symbolic structure:
// same ordering, same pivot sequence, same L/U patterns, values
// recomputed for a. It is the hot half of the symbolic/numeric split —
// a single left-looking sweep with no graph traversal and no pivot
// search. Refactoring the analyzed matrix itself reproduces the
// analyzing factorization bit for bit.
//
// Returns ErrPatternChanged if a's pattern differs from the analyzed
// one, and ErrRefactorUnstable (or ErrSingular) when the frozen pivots
// are no longer numerically acceptable for a's values; both are cues to
// re-Analyze. It allocates the factors and the dense accumulator — the
// only part of a workspace the scalar kernel touches, so the blocked
// schedule is not built for it — and runs RefactorInto: one kernel
// body, so the two forms cannot drift.
func (s *Symbolic) Refactor(a *CSC) (*LUFactors, error) {
	f := &LUFactors{}
	if err := s.RefactorInto(f, &RefactorWorkspace{x: make([]float64, s.n)}, a); err != nil {
		return nil, err
	}
	return f, nil
}

// CacheStats counts symbolic-reuse work. Refactors/(Analyses+Refactors)
// is the reuse rate; Fallbacks counts refactorizations abandoned for
// numerical reasons and replaced by a fresh analysis; Orderings counts
// fill-reducing orderings computed (cache misses in an OrderingCache).
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
// The KKT loop needs at most two (the plain pattern and its Tikhonov-
// regularized variant); a little headroom covers callers that interleave
// a few structures through one cache.
const symbolicCacheCap = 4

// SymbolicCache amortizes symbolic LU analysis across a sequential
// stream of factorizations that share sparsity patterns — the
// interior-point KKT systems of one solve, or one Newton solve's
// Jacobians. Factorize analyzes on first sight of a pattern, then
// numerically refactorizes every subsequent matrix with that pattern,
// re-analyzing automatically if the frozen pivot sequence goes stale.
//
// Because the frozen pivots come from the first matrix seen, results
// depend (in the last floating-point bits) on the stream's history; use
// one SymbolicCache per solve and share only an OrderingCache across
// solves to keep solver output independent of request order — the
// serving daemon and the parallel sweeps rely on that.
type SymbolicCache struct {
	ord    Ordering
	oc     *OrderingCache // optional source of cached orderings
	tol    float64
	shaped bool           // analyze the pivot surrogate, not first-seen values
	parent *SymbolicCache // optional shared pattern-pure cache (see NewChild)

	mu    sync.Mutex
	syms  []*Symbolic // most recently used first
	stats CacheStats
}

// NewSymbolicCache returns an empty cache that analyzes new patterns
// with the given ordering and pivot threshold (see FactorizeOpts).
func NewSymbolicCache(ord Ordering, tol float64) *SymbolicCache {
	return &SymbolicCache{ord: ord, tol: tol}
}

// NewSymbolicCacheFrom returns a cache that sources fill-reducing
// orderings from oc (computing and caching them there on first sight of
// a pattern) — the seam that lets many per-solve SymbolicCaches share
// one per-grid ordering analysis.
func NewSymbolicCacheFrom(oc *OrderingCache, tol float64) *SymbolicCache {
	return &SymbolicCache{ord: oc.Ordering(), oc: oc, tol: tol}
}

// Ordering returns the fill-reducing ordering the cache analyzes with.
func (c *SymbolicCache) Ordering() Ordering { return c.ord }

// Shaped switches the cache to pivot-shaped analysis and returns it (a
// constructor modifier: NewSymbolicCacheFrom(oc, tol).Shaped()). A
// shaped cache analyzes the pattern-derived pivot surrogate instead of
// the first matrix seen, so the frozen pivot sequence — like the
// ordering — becomes a pure function of the sparsity pattern. Two
// consequences:
//
//   - Sharing is deterministic. A plain cache must stay per-solve
//     because its pivots encode the first solve's values; a shaped
//     cache can be shared across solves (see NewChild) without making
//     any result depend on another solve's values.
//   - Diagonally grounded patterns order better. The surrogate's
//     dominant stored diagonals keep pivots on the diagonal wherever
//     the pattern has one, so fill tracks the symmetric-elimination
//     prediction minimum-degree orderings optimize — on quasi-definite
//     KKT systems this is several times less fill than pivots frozen at
//     an interior-point iterate's lopsided values.
//
// Numeric safety is unchanged: every refactorization still runs the
// pivot-decay check, and a pattern whose real values reject the shaped
// pivots falls back to a fresh value-pivoted analysis exactly like any
// stale pivot sequence (counted in Fallbacks). Value-pivoted fallback
// analyses are kept out of shared parents so those stay pattern-pure.
func (c *SymbolicCache) Shaped() *SymbolicCache {
	c.shaped = true
	return c
}

// NewChild returns a per-stream cache layered over c: lookups consult
// the child first, then c, and analyses the child performs are inserted
// into both. Entries the child uses are pinned locally, so a pattern
// evicted from a busy shared parent (e.g. a parallel contingency sweep
// cycling more patterns than the MRU retains) cannot force a mid-solve
// re-analysis. The child inherits the parent's ordering source, pivot
// threshold and shaped mode; its Stats count only this stream's work,
// which keeps the per-solve accounting mips reports unchanged.
//
// The parent must be a shaped cache: sharing value-pivoted symbolics
// would make one stream's pivot choices — and with them the last bits
// of every result — depend on whichever stream analyzed first.
func (c *SymbolicCache) NewChild() *SymbolicCache {
	if !c.shaped {
		panic("sparse: NewChild requires a shaped parent cache (see Shaped)")
	}
	return &SymbolicCache{ord: c.ord, oc: c.oc, tol: c.tol, shaped: true, parent: c}
}

// Stats returns a snapshot of the cache counters.
func (c *SymbolicCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FactorSlot holds per-pattern preallocated factors and workspace for
// FactorizeInto. One slot serves one sequential factorization stream
// (e.g. one interior-point solve); the factors returned through it are
// valid until the next FactorizeInto call on the same slot.
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

// Factorize returns an LU of a, refactorizing on a cached symbolic
// analysis when a's pattern has been seen before and analyzing it
// otherwise. Refactorizations go through the automatically selected
// kernel (scalar or blocked — see Symbolic.Blocked).
func (c *SymbolicCache) Factorize(a *CSC) (*LUFactors, error) {
	return c.factorize(a, nil)
}

// FactorizeInto is Factorize reusing slot's preallocated factor storage
// and workspace: on the steady-state path (pattern already analyzed,
// slot already bound to it) it performs zero allocations. The returned
// factors alias the slot and are valid until the next call.
func (c *SymbolicCache) FactorizeInto(slot *FactorSlot, a *CSC) (*LUFactors, error) {
	return c.factorize(a, slot)
}

func (c *SymbolicCache) factorize(a *CSC, slot *FactorSlot) (*LUFactors, error) {
	sym := c.lookup(a)
	if sym == nil && c.parent != nil {
		if sym = c.parent.lookup(a); sym != nil {
			// Pin the shared entry locally: parent evictions can no
			// longer force this stream to re-analyze mid-solve.
			c.insert(sym, a)
		}
	}
	if sym != nil {
		f, err := refactorOn(sym, a, slot)
		if err == nil {
			c.mu.Lock()
			c.stats.Refactors++
			c.mu.Unlock()
			return f, nil
		}
		// Frozen pivots went stale (or the matrix is numerically
		// singular): re-analyze with fresh value pivoting. The
		// value-pivoted replacement stays local — shared parents hold
		// only pattern-pure entries.
		c.mu.Lock()
		c.stats.Fallbacks++
		c.mu.Unlock()
		return c.analyzeValue(a, slot)
	}
	if c.shaped {
		f, analyzed, err := c.analyzeShaped(a, slot)
		if err == nil {
			return f, nil
		}
		if analyzed {
			// The shaped pivot sequence exists but a's values reject
			// it; fall back to value pivoting like any stale sequence.
			c.mu.Lock()
			c.stats.Fallbacks++
			c.mu.Unlock()
		}
		return c.analyzeValue(a, slot)
	}
	return c.analyzeValue(a, slot)
}

// lookup returns the cached symbolic for a's pattern, bumped to the MRU
// position, or nil.
func (c *SymbolicCache) lookup(a *CSC) *Symbolic {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range c.syms {
		if s.PatternMatches(a) {
			copy(c.syms[1:i+1], c.syms[:i])
			c.syms[0] = s
			return s
		}
	}
	return nil
}

// insert places sym at the MRU position, replacing an existing entry for
// a's pattern and evicting the oldest beyond the cap. Racing inserts of
// the same pattern into a shared shaped cache store identical symbolics
// (pure functions of the pattern), so the replace keeps the cache
// correct either way.
func (c *SymbolicCache) insert(sym *Symbolic, a *CSC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range c.syms {
		if s.PatternMatches(a) {
			copy(c.syms[1:i+1], c.syms[:i])
			c.syms[0] = sym
			return
		}
	}
	c.syms = append(c.syms, nil)
	copy(c.syms[1:], c.syms)
	c.syms[0] = sym
	if len(c.syms) > symbolicCacheCap {
		c.syms = c.syms[:symbolicCacheCap]
	}
}

// refactorOn runs the auto-selected numeric kernel for a on sym, through
// slot's preallocated storage when one is given.
func refactorOn(sym *Symbolic, a *CSC, slot *FactorSlot) (*LUFactors, error) {
	if slot != nil {
		if slot.sym != sym {
			slot.bind(sym)
		}
		if err := sym.refactorAutoInto(slot.f, slot.ws, a); err != nil {
			return nil, err
		}
		return slot.f, nil
	}
	return sym.refactorAuto(a)
}

// perm resolves the column ordering for a through the shared
// OrderingCache when one is attached.
func (c *SymbolicCache) perm(a *CSC) []int {
	if c.oc != nil {
		return c.oc.Perm(a)
	}
	return permFor(a, c.ord)
}

func (c *SymbolicCache) countAnalysis() {
	c.mu.Lock()
	c.stats.Analyses++
	if c.oc == nil {
		c.stats.Orderings++
	}
	c.mu.Unlock()
}

// analyzeValue analyzes a with its real values choosing the pivots, and
// caches the result locally (never in a shared parent: value-derived
// pivot sequences would make one stream's results depend on another's
// values).
func (c *SymbolicCache) analyzeValue(a *CSC, slot *FactorSlot) (*LUFactors, error) {
	sym, f, err := AnalyzePerm(a, c.perm(a), c.tol)
	if err != nil {
		return nil, err
	}
	c.countAnalysis()
	c.insert(sym, a)
	if slot != nil {
		// Bind the slot for the refactorizations that follow; the
		// analyzing factors themselves are freshly allocated.
		slot.bind(sym)
	}
	return f, nil
}

// analyzeShaped analyzes the pattern-derived pivot surrogate, then
// numerically refactors a on the shaped symbolic. The returned bool
// reports whether the surrogate analysis itself succeeded — when it did
// but a's values reject the shaped pivots, the caller counts a fallback
// before re-analyzing with value pivoting. Shaped symbolics are
// pattern-pure, so successful ones are published to the shared parent.
func (c *SymbolicCache) analyzeShaped(a *CSC, slot *FactorSlot) (*LUFactors, bool, error) {
	sym, _, err := AnalyzePerm(pivotSurrogate(a), c.perm(a), c.tol)
	if err != nil {
		return nil, false, err
	}
	sym.boost = true
	c.countAnalysis()
	f, err := refactorOn(sym, a, slot)
	if err != nil {
		return nil, true, err
	}
	if c.parent != nil {
		c.parent.insert(sym, a)
	}
	c.insert(sym, a)
	return f, true, nil
}

// SolveRefactored is a convenience for the common refactor-and-solve
// step: factorize a through the cache and solve for b.
func (c *SymbolicCache) SolveRefactored(a *CSC, b la.Vector) (la.Vector, error) {
	f, err := c.Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// OrderingCache memoizes fill-reducing orderings per sparsity pattern
// and aggregates solve-level reuse statistics. An ordering is a function
// of the pattern alone, so sharing this cache across concurrent solves,
// batch sweeps and serve requests is deterministic: unlike frozen pivot
// sequences, a cached permutation cannot make one request's numerics
// depend on another's values. This is the per-grid object opf.Prepare
// creates and Rebind/Perturb derivations share.
type OrderingCache struct {
	ord Ordering

	mu    sync.Mutex
	perms []*permEntry // most recently used first
	stats CacheStats
}

type permEntry struct {
	pat pattern
	q   []int
}

// NewOrderingCache returns an empty cache computing ord orderings.
func NewOrderingCache(ord Ordering) *OrderingCache {
	return &OrderingCache{ord: ord}
}

// Ordering returns the fill-reducing ordering the cache computes.
func (c *OrderingCache) Ordering() Ordering { return c.ord }

// Perm returns the cached column ordering for a's pattern, computing and
// caching it on first sight. The returned slice is shared: callers must
// not modify it.
func (c *OrderingCache) Perm(a *CSC) []int {
	c.mu.Lock()
	for i, e := range c.perms {
		if e.pat.matches(a) {
			copy(c.perms[1:i+1], c.perms[:i])
			c.perms[0] = e
			c.mu.Unlock()
			return e.q
		}
	}
	c.mu.Unlock()
	q := permFor(a, c.ord)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Orderings++
	// A racing goroutine may have inserted the same pattern meanwhile;
	// its permutation is identical (pure function of the pattern), so
	// inserting a duplicate only wastes a slot — check again.
	for _, e := range c.perms {
		if e.pat.matches(a) {
			return e.q
		}
	}
	c.perms = append(c.perms, nil)
	copy(c.perms[1:], c.perms)
	c.perms[0] = &permEntry{pat: patternOf(a), q: q}
	if len(c.perms) > symbolicCacheCap {
		c.perms = c.perms[:symbolicCacheCap]
	}
	return q
}

// AddSolveStats folds one solve's SymbolicCache counters into the
// aggregate (mips calls this when a solve finishes).
func (c *OrderingCache) AddSolveStats(s CacheStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.add(s)
}

// Stats returns the aggregated counters: orderings computed here plus
// the analysis/refactor counts of every solve that reported in.
func (c *OrderingCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
