package sparse

import (
	"sync"
	"sync/atomic"
)

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

// CacheStats counts symbolic-reuse work. Refactors/(Analyses+Refactors)
// is the reuse rate; Fallbacks counts factorizations rejected as
// numerically singular (ErrSingular: a column collapsed, see
// singularRel) — the caller gets the error, no analysis is redone;
// Orderings counts fill-reducing orderings computed.
type CacheStats struct {
	Analyses  uint64 // pattern analyses (ordering, elimination tree, supernodes)
	Refactors uint64 // numeric factorizations on an analysis made earlier
	Fallbacks uint64 // factorizations rejected as numerically singular
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

// SymbolicCache is the KKT analysis of one topology: the LDLᵀ analysis
// of its sparsity pattern under the cache's fill-reducing ordering, plus
// the reuse counters of every solve that went through it. One cache
// publishes one analysis — that of the first pattern it, or a cache
// derived from it, meets. The analysis is a pure function of the
// pattern (AnalyzeLDL reads no values) and every factorization on it a
// pure function of the pattern and the values, so one cache serves
// every solve of a grid's load variants, concurrently, without making
// any result depend on which solve populated it or on what a factor
// slot held before.
//
// Solves do not call the cache directly: each takes a CacheHandle.
type SymbolicCache struct {
	// root owns the analysis this cache's matrices are factored on: the
	// cache itself, or the one it was derived from (see Derive).
	root *SymbolicCache
	// sym is the root's one published analysis, made under mu by the
	// first handle of the root or of any cache derived from it.
	sym atomic.Pointer[LDLSymbolic]

	mu    sync.Mutex
	stats CacheStats
}

// NewSymbolicCache returns an empty cache.
func NewSymbolicCache() *SymbolicCache {
	c := &SymbolicCache{}
	c.root = c
	return c
}

// Derive returns a cache with its own counters and c's analysis, for a
// variant of c's structure whose matrices have c's sparsity pattern — a
// grid with a branch out whose admittance entries are kept as explicit
// zeros. A cache derived from a derived one shares the same root. The
// root's analysis is made by whichever handle of the root or of any of
// its derivations asks first (Analysis), and counted on the root; a
// matrix of another pattern is analyzed privately by the handle that
// meets it, exactly as through a fresh cache, so correctness never
// depends on the patterns matching.
func (c *SymbolicCache) Derive() *SymbolicCache {
	return &SymbolicCache{root: c.root}
}

// Symbolic returns the analysis the cache's matrices are factored on —
// its root's — or nil before the first factorization.
func (c *SymbolicCache) Symbolic() *LDLSymbolic { return c.root.sym.Load() }

// Stats returns the aggregated counters of every closed handle, plus the
// analysis the cache published as a root.
func (c *SymbolicCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// publish returns the root's analysis, making it from a's pattern if the
// root has none yet — under the root's lock, so racing first handles of
// the root and of its derivations analyze once, and counted on the root
// whichever came first; made reports whether this call made it.
func (c *SymbolicCache) publish(a *CSC) (sym *LDLSymbolic, made bool) {
	r := c.root
	r.mu.Lock()
	defer r.mu.Unlock()
	if sym = r.sym.Load(); sym != nil {
		return sym, false
	}
	sym = AnalyzeLDL(a)
	r.stats.Orderings++
	r.stats.Analyses++
	r.sym.Store(sym)
	return sym, true
}

// Handle returns the view of c one sequential factorization stream —
// one interior-point solve — works through: the cache's analysis, what
// the stream had to analyze for itself, and the stream's counters, which
// reach c when the handle is closed. Not for sharing across goroutines.
func (c *SymbolicCache) Handle() *CacheHandle { return &CacheHandle{c: c} }

// CacheHandle is one solve's view of a SymbolicCache (see Handle).
type CacheHandle struct {
	c *SymbolicCache
	// own is the analysis of a pattern that is not the root's, private
	// to this stream. A newer one replaces it.
	own   *LDLSymbolic
	stats CacheStats
	// last is the analysis Analysis last returned, and lastColPtr/
	// lastRowIdx the pattern arrays it was asked for: a matrix that comes
	// back with the same arrays has the same pattern (see Analysis), so
	// it is not compared again.
	last                   *LDLSymbolic
	lastColPtr, lastRowIdx []int
	// fresh: the stream made the analysis it factors next, so that
	// factorization is no refactor.
	fresh bool
}

// Close folds the stream's counters into the cache. Calling it again
// adds only what was counted since.
func (h *CacheHandle) Close() {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	h.c.stats = h.c.stats.Add(h.stats)
	h.stats = CacheStats{}
}

// lookup returns the analysis the stream factors a's pattern on, or nil.
func (h *CacheHandle) lookup(a *CSC) *LDLSymbolic {
	if h.last != nil && a.NRows == h.last.pat.n && a.NCols == h.last.pat.n &&
		sameArray(a.ColPtr, h.lastColPtr) && sameArray(a.RowIdx, h.lastRowIdx) {
		return h.last
	}
	if h.own != nil && h.own.pat.matches(a) {
		return h.own
	}
	if s := h.c.root.sym.Load(); s != nil && s.pat.matches(a) {
		return s
	}
	return nil
}

// sameArray reports whether a and b are the same array: the same length
// and, when not empty, the same first element.
func sameArray(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// FactorSlot holds preallocated factors and workspace for a handle's
// factorizations. One slot serves one sequential factorization stream
// at a time and may outlive it (mips pools slots across solves, of any
// grid); the factors returned through it are valid until the next
// factorization through the same slot.
type FactorSlot struct {
	f LDLFactors
}

// Analysis returns the analysis the stream factors a's pattern on: the
// root's, which the first handle of the root or of any of its
// derivations to ask makes from its pattern and publishes (see Derive);
// a root holds one pattern, so the analysis of another stays with this
// handle, counted and never published. The answer for the arrays asked
// last is remembered, so asking again each iteration costs nothing.
//
// A's ColPtr and RowIdx must never be rewritten in place once a has
// been given to the handle: the handle takes a matrix that comes back
// with the arrays it was last asked for (same first element, same
// length) as holding the pattern they held, without comparing it again.
// Values may change freely; a new pattern comes in new arrays.
func (h *CacheHandle) Analysis(a *CSC) *LDLSymbolic {
	sym := h.lookup(a)
	if sym == nil {
		sym, h.fresh = h.c.publish(a)
		if !sym.pat.matches(a) {
			// The root holds another pattern: this one is the stream's alone.
			sym, h.fresh = AnalyzeLDL(a), true
			h.stats.Orderings++
			h.stats.Analyses++
			h.own = sym
		}
	}
	// Every path above matched a's pattern to sym's.
	h.last, h.lastColPtr, h.lastRowIdx = sym, a.ColPtr, a.RowIdx
	return sym
}

// FactorizePacked returns the LDLᵀ factorization of the symmetric matrix
// packed in v (see LDLSymbolic) on sym, an analysis Analysis returned,
// in slot's preallocated storage. A factorization that meets a
// collapsed column returns ErrSingular and is counted in Fallbacks; any
// other counts as a refactor unless the stream made sym for it. The
// steady-state path (slot bound to the analysis, or to a larger one
// before) performs zero allocations. The returned factors are valid
// until the next call.
func (h *CacheHandle) FactorizePacked(slot *FactorSlot, sym *LDLSymbolic, v []float64) (*LDLFactors, error) {
	analyzed := h.fresh
	h.fresh = false
	if err := sym.FactorPacked(&slot.f, v); err != nil {
		h.stats.Fallbacks++
		return nil, err
	}
	if !analyzed {
		h.stats.Refactors++
	}
	return &slot.f, nil
}
