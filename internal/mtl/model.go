package mtl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/la"
	"repro/internal/nn"
	"repro/internal/opf"
)

// Variant selects the model family compared in Figure 7 of the paper.
type Variant int

const (
	// VariantSeparate trains seven independent networks with the same
	// layer/neuron budget — the "Sep models" baseline.
	VariantSeparate Variant = iota
	// VariantMTL is the shared-trunk multitask model without physics
	// losses.
	VariantMTL
	// VariantSmartPGSim is the full model: MTL + physics constraints.
	VariantSmartPGSim
)

// ParseVariant maps the CLI spelling of a variant ("sep", "mtl",
// "smartpgsim") to its Variant value — the inverse of the flag values
// accepted by cmd/train and cmd/pgsimd.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "sep":
		return VariantSeparate, nil
	case "mtl":
		return VariantMTL, nil
	case "smartpgsim":
		return VariantSmartPGSim, nil
	default:
		return 0, fmt.Errorf("mtl: unknown variant %q (want sep, mtl or smartpgsim)", s)
	}
}

// String names the variant as in the paper's plots.
func (v Variant) String() string {
	switch v {
	case VariantSeparate:
		return "Sep models"
	case VariantMTL:
		return "MTL"
	case VariantSmartPGSim:
		return "Smart-PGSim"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// PhysicsWeights scales the four physics loss terms of Eqn 9 (zero
// disables a term).
type PhysicsWeights struct {
	AC, Ieq, Cost, Lag float64
}

// DefaultPhysics returns the weights used by the Smart-PGSim variant.
// The physics terms act as regularizers: their weights scale with the
// training-corpus size. These defaults are tuned for the repository's
// hundreds-of-samples regime (the paper trains on 8,000 samples and can
// afford proportionally heavier physics terms — see EXPERIMENTS.md).
func DefaultPhysics() PhysicsWeights {
	return PhysicsWeights{AC: 0.002, Ieq: 0.0005, Cost: 0.002, Lag: 0.0005}
}

// Config sizes and wires the model.
type Config struct {
	Variant Variant
	// Hierarchy enables the physics-dependent head ordering (Z from X̂,
	// µ from Ẑ). Ignored (off) for VariantSeparate.
	Hierarchy bool
	// DetachPeriod: every k-th training step updates only the main task
	// path (gradients from λ/Z/µ heads into the trunk are blocked).
	// 0 disables.
	DetachPeriod int
	// TrunkWidths overrides the trunk layer widths; nil derives them
	// per system from the problem layout (trunkWidthsFor): the paper's
	// rule (5 layers, 2nb·[1.0,1.2,1.4,1.6,1.8]) up to the point where
	// the constraint counts, not the bus count, should size the model.
	TrunkWidths []int
	// HeadHidden is each estimator's hidden width; 0 derives it from the
	// task output size.
	HeadHidden int
	Physics    PhysicsWeights
	Seed       int64
}

// DefaultConfig returns the full Smart-PGSim configuration.
func DefaultConfig() Config {
	return Config{
		Variant:      VariantSmartPGSim,
		Hierarchy:    true,
		DetachPeriod: 4,
		Physics:      DefaultPhysics(),
		Seed:         1,
	}
}

// taskID indexes the seven estimators.
type taskID int

const (
	taskVa taskID = iota
	taskVm
	taskPg
	taskQg
	taskLam
	taskZ
	taskMu
	numTasks
)

// Pred is a batch of (normalized) multitask predictions.
type Pred struct {
	X   *la.Matrix // batch × nx, columns in opf layout order
	Lam *la.Matrix // batch × neq
	Z   *la.Matrix // batch × niq
	Mu  *la.Matrix // batch × niq
}

// Model is the Smart-PGSim network.
type Model struct {
	Cfg  Config
	Lay  opf.Layout
	Norm Normalizer

	trunks []*nn.Sequential // len 1 (shared) or numTasks (separate)
	heads  [numTasks]*nn.Sequential

	// loaded is the sha256 of the snapshot Load read the model from,
	// valid while the weights' Version sum is still loadedVer.
	loaded    string
	loadedVer uint64

	// forward caches for backward
	in        *la.Matrix
	trunkOut  []*la.Matrix
	zIn, muIn *la.Matrix
	headOut   [numTasks]*la.Matrix
}

// New builds a model for the given problem layout, its weights drawn
// He-uniform from cfg.Seed.
func New(lay opf.Layout, cfg Config) *Model {
	return build(lay, cfg, rand.New(rand.NewSource(cfg.Seed)))
}

// build wires the network for lay and cfg, drawing its init from rng. A
// nil rng leaves every weight zero, for Load and Clone, which overwrite
// them.
func build(lay opf.Layout, cfg Config, rng *rand.Rand) *Model {
	in := 2 * lay.NB
	widths := cfg.TrunkWidths
	if widths == nil {
		widths = trunkWidthsFor(lay)
	}
	trunkOut := widths[len(widths)-1]
	m := &Model{Cfg: cfg, Lay: lay}

	shared := cfg.Variant != VariantSeparate
	hier := cfg.Hierarchy && shared
	ntr := 1
	if !shared {
		ntr = int(numTasks)
	}
	for i := 0; i < ntr; i++ {
		m.trunks = append(m.trunks, nn.MLP(rng, false, append([]int{in}, widths...)...))
	}

	outSize := [numTasks]int{
		taskVa: lay.NB, taskVm: lay.NB, taskPg: lay.NG, taskQg: lay.NG,
		taskLam: lay.NEq, taskZ: lay.NIq, taskMu: lay.NIq,
	}
	for t := taskID(0); t < numTasks; t++ {
		hin := trunkOut
		if hier {
			switch t {
			case taskZ:
				hin += lay.NX // X̂ appended
			case taskMu:
				hin += lay.NIq // Ẑ appended
			}
		}
		hidden := cfg.HeadHidden
		if hidden == 0 {
			hidden = headHidden(outSize[t])
		}
		sigmoid := t == taskZ || t == taskMu // hard positivity constraint
		m.heads[t] = nn.MLP(rng, sigmoid, hin, hidden, outSize[t])
	}
	return m
}

// trunkWidthsFor sizes the shared trunk from the problem layout. The
// paper's rule — five layers at 2nb·[1.0,1.2,1.4,1.6,1.8] — grows
// linearly with the bus count, which at case300 scale (600 inputs)
// makes the trunk wider than the information the constraint structure
// carries and training intractably slow. Above the point where the
// linear rule crosses the constraint-derived budget, the base width is
// instead tied to the multiplier counts the heads must explain,
// 192 + 4·⌈√(NEq+NIq)⌉: case57 and case118 keep the paper's widths
// (114 and 236 inputs stay under their budgets of 276 and 324), while
// case300 caps at 384 instead of 600. See DESIGN.md §9.
func trunkWidthsFor(lay opf.Layout) []int {
	in := 2 * lay.NB
	base := float64(in)
	if budget := 192 + 4*math.Ceil(math.Sqrt(float64(lay.NEq+lay.NIq))); budget < base {
		base = budget
	}
	f := []float64{1.0, 1.2, 1.4, 1.6, 1.8}
	w := make([]int, len(f))
	for i, s := range f {
		w[i] = int(math.Ceil(base * s))
	}
	return w
}

// headHidden sizes an estimator's hidden layer from its task output
// size — NB/NG for the X heads, NEq for λ, NIq for Z and µ — so per-
// system head capacity follows the multiplier counts.
func headHidden(out int) int {
	h := 2 * out
	if h < 24 {
		h = 24
	}
	if h > 512 {
		h = 512
	}
	return h
}

// shared reports whether the trunk is shared across tasks.
func (m *Model) shared() bool { return m.Cfg.Variant != VariantSeparate }

// hier reports whether the physics-dependent hierarchy is active.
func (m *Model) hier() bool { return m.Cfg.Hierarchy && m.shared() }

// Forward runs the network on a batch of normalized inputs.
func (m *Model) Forward(in *la.Matrix) *Pred {
	m.in = in
	m.trunkOut = make([]*la.Matrix, len(m.trunks))
	for i, tr := range m.trunks {
		m.trunkOut[i] = tr.Forward(in)
	}
	get := func(t taskID) *la.Matrix {
		if m.shared() {
			return m.trunkOut[0]
		}
		return m.trunkOut[t]
	}
	for _, t := range []taskID{taskVa, taskVm, taskPg, taskQg, taskLam} {
		m.headOut[t] = m.heads[t].Forward(get(t))
	}
	xhat := m.assembleX()
	if m.hier() {
		m.zIn = hcat(get(taskZ), xhat)
	} else {
		m.zIn = get(taskZ)
	}
	m.headOut[taskZ] = m.heads[taskZ].Forward(m.zIn)
	if m.hier() {
		m.muIn = hcat(get(taskMu), m.headOut[taskZ])
	} else {
		m.muIn = get(taskMu)
	}
	m.headOut[taskMu] = m.heads[taskMu].Forward(m.muIn)

	return &Pred{X: xhat, Lam: m.headOut[taskLam], Z: m.headOut[taskZ], Mu: m.headOut[taskMu]}
}

// assembleX packs the four X-task head outputs into layout order.
func (m *Model) assembleX() *la.Matrix {
	lay := m.Lay
	rows := m.headOut[taskVa].Rows
	x := la.NewMatrix(rows, lay.NX)
	copyBlock := func(src *la.Matrix, off int) {
		for r := 0; r < rows; r++ {
			copy(x.Row(r)[off:off+src.Cols], src.Row(r))
		}
	}
	copyBlock(m.headOut[taskVa], lay.VaOff)
	copyBlock(m.headOut[taskVm], lay.VmOff)
	copyBlock(m.headOut[taskPg], lay.PgOff)
	copyBlock(m.headOut[taskQg], lay.QgOff)
	return x
}

// splitX separates an X-shaped gradient back into the four head blocks.
func (m *Model) splitX(gx *la.Matrix) [4]*la.Matrix {
	lay := m.Lay
	rows := gx.Rows
	mk := func(off, n int) *la.Matrix {
		g := la.NewMatrix(rows, n)
		for r := 0; r < rows; r++ {
			copy(g.Row(r), gx.Row(r)[off:off+n])
		}
		return g
	}
	return [4]*la.Matrix{
		mk(lay.VaOff, lay.NB), mk(lay.VmOff, lay.NB),
		mk(lay.PgOff, lay.NG), mk(lay.QgOff, lay.NG),
	}
}

// Backward propagates multitask gradients; detach blocks the gradient
// flow from the auxiliary tasks (λ, Z, µ) into the shared trunk and the
// main-task outputs — the paper's feature-prioritization knob.
func (m *Model) Backward(g *Pred, detach bool) {
	rows := g.X.Rows
	trunkGrad := make([]*la.Matrix, len(m.trunks))
	addTrunkGrad := func(t taskID, gm *la.Matrix) {
		idx := 0
		if !m.shared() {
			idx = int(t)
		}
		if trunkGrad[idx] == nil {
			trunkGrad[idx] = la.NewMatrix(rows, gm.Cols)
		}
		trunkGrad[idx].AddScaledMat(1, gm)
	}

	// µ head first (deepest in the hierarchy).
	gMuIn := m.heads[taskMu].Backward(g.Mu)
	var gZfromMu *la.Matrix
	if m.hier() {
		var gT *la.Matrix
		gT, gZfromMu = hsplit(gMuIn, m.trunkOut[0].Cols)
		if !detach {
			addTrunkGrad(taskMu, gT)
		}
	} else if !detach || !m.shared() {
		addTrunkGrad(taskMu, gMuIn)
	}

	// Z head.
	gZ := g.Z.Clone()
	if gZfromMu != nil && !detach {
		gZ.AddScaledMat(1, gZfromMu)
	}
	gZIn := m.heads[taskZ].Backward(gZ)
	var gXfromZ *la.Matrix
	if m.hier() {
		var gT *la.Matrix
		gT, gXfromZ = hsplit(gZIn, m.trunkOut[0].Cols)
		if !detach {
			addTrunkGrad(taskZ, gT)
		}
	} else if !detach || !m.shared() {
		addTrunkGrad(taskZ, gZIn)
	}

	// λ head.
	gLamIn := m.heads[taskLam].Backward(g.Lam)
	if !detach || !m.shared() {
		addTrunkGrad(taskLam, gLamIn)
	}

	// Main task heads; hierarchy feeds X̂ gradient from the Z head back
	// into them unless detached.
	gx := g.X.Clone()
	if gXfromZ != nil && !detach {
		gx.AddScaledMat(1, gXfromZ)
	}
	blocks := m.splitX(gx)
	for i, t := range []taskID{taskVa, taskVm, taskPg, taskQg} {
		addTrunkGrad(t, m.heads[t].Backward(blocks[i]))
	}

	for i, tr := range m.trunks {
		if trunkGrad[i] != nil {
			tr.Backward(trunkGrad[i])
		}
	}
}

// nets lists the model's networks, trunks first, in Params order.
func (m *Model) nets() []*nn.Sequential {
	return append(append([]*nn.Sequential(nil), m.trunks...), m.heads[:]...)
}

// Params returns every learnable parameter of the model.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	for _, s := range m.nets() {
		ps = append(ps, s.Params()...)
	}
	return ps
}

// NumParams counts the model's learnable scalars from its layer shapes,
// so a released model (Release) counts the weights it serves.
func (m *Model) NumParams() int {
	n := 0
	for _, s := range m.nets() {
		n += s.NumParams()
	}
	return n
}

// Clone returns an independent trainable copy with the same
// configuration, weights and normalization state. Training (Forward and
// Backward cache activations on the model) is the one use that needs a
// private copy; prediction does not — see Predict. Cloning a released
// model panics with nn.ErrReleased: its float64 weights are gone.
func (m *Model) Clone() *Model {
	src := m.Params()
	for _, p := range src {
		if p.Released() {
			panic(fmt.Errorf("mtl: Clone: %w: %s", nn.ErrReleased, p.Name))
		}
	}
	c := build(m.Lay, m.Cfg, nil)
	c.Norm = m.Norm
	dst := c.Params()
	if len(src) != len(dst) {
		panic("mtl: Clone parameter count mismatch")
	}
	for i := range src {
		copy(dst[i].Val, src[i].Val)
		dst[i].Version++
	}
	return c
}

// Predict denormalizes one input's prediction into a warm-start point.
// Mu and Z are floored at a small positive value (interior-point
// requirement); with min-max ranges fitted on nonnegative data the
// sigmoid heads already keep them nonnegative.
//
// Prediction runs on the float32 serving path (nn.Sequential.Infer):
// a chain of single-row matvecs over column-major float32 weights that
// skip every zero activation, at precision far beyond what a warm start
// needs. Training and the batch Forward stay float64.
//
// Predict is safe for concurrent use: it allocates its activations per
// call and reads the weights through each layer's immutable float32 copy
// (nn.Sequential.Infer), so every consumer of predictions — evaluation
// sweeps, screening, trajectories, the serving daemon — shares the one
// Model from all its goroutines. Only mutating the weights (Train, Load)
// excludes concurrent prediction.
func (m *Model) Predict(input la.Vector) *opf.Start {
	return m.predict(input, (*nn.Sequential).Infer)
}

// predict is Predict with each network's float32 forward pass supplied
// by the caller, so a test can run the same chain on a reference kernel.
func (m *Model) predict(input la.Vector, infer func(*nn.Sequential, []float32) []float32) *opf.Start {
	lay := m.Lay
	norm := m.Norm.In.NormalizeVec(input)
	in32 := make([]float32, len(norm))
	for i, v := range norm {
		in32[i] = float32(v)
	}
	trunkOut := make([][]float32, len(m.trunks))
	for i, tr := range m.trunks {
		trunkOut[i] = infer(tr, in32)
	}
	get := func(t taskID) []float32 {
		if m.shared() {
			return trunkOut[0]
		}
		return trunkOut[t]
	}
	xhat := make([]float32, lay.NX)
	for _, h := range []struct {
		t   taskID
		off int
	}{
		{taskVa, lay.VaOff}, {taskVm, lay.VmOff}, {taskPg, lay.PgOff}, {taskQg, lay.QgOff},
	} {
		copy(xhat[h.off:], infer(m.heads[h.t], get(h.t)))
	}
	lam32 := infer(m.heads[taskLam], get(taskLam))
	zin := get(taskZ)
	if m.hier() {
		zin = append(append(make([]float32, 0, len(zin)+len(xhat)), zin...), xhat...)
	}
	z32 := infer(m.heads[taskZ], zin)
	muin := get(taskMu)
	if m.hier() {
		muin = append(append(make([]float32, 0, len(muin)+len(z32)), muin...), z32...)
	}
	mu32 := infer(m.heads[taskMu], muin)

	to64 := func(v []float32) la.Vector {
		out := make(la.Vector, len(v))
		for i, f := range v {
			out[i] = float64(f)
		}
		return out
	}
	x := m.Norm.X.DenormalizeVec(to64(xhat))
	lam := m.Norm.Lam.DenormalizeVec(to64(lam32))
	mu := m.Norm.Mu.DenormalizeVec(to64(mu32))
	z := m.Norm.Z.DenormalizeVec(to64(z32))
	for i := range mu {
		if mu[i] < 1e-8 {
			mu[i] = 1e-8
		}
	}
	for i := range z {
		if z[i] < 1e-8 {
			z[i] = 1e-8
		}
	}
	return &opf.Start{X: x, Lam: lam, Mu: mu, Z: z}
}

// Warmup builds the float32 serving copy of every layer now instead of
// inside the first prediction. It is an optimisation, never an
// obligation — an unwarmed model converts on first use, race-free — and
// Train ends with it. Load leaves it to the caller, so a model loaded
// only to be hashed, saved or retrained never builds the float32 copy.
func (m *Model) Warmup() {
	for _, s := range m.nets() {
		s.Materialize32()
	}
}

// Release builds the float32 serving copy of every layer and then drops
// the float64 weight matrices and any gradients (nn.Sequential.Release):
// the model predicts bit for bit as before from 4 bytes a weight, and
// its normalizer and biases stay. It is for a model that will only
// predict — the serving daemon releases every model it registers. From
// then on Save fails with nn.ErrReleased, and Clone, Train and any
// rebuild of the float32 copy after a weight mutation panic with it;
// Fingerprint still answers for a model read by Load (the hash of the
// snapshot it streamed) and fails like Save otherwise.
func (m *Model) Release() {
	for _, s := range m.nets() {
		s.Release()
	}
}

// PredictorFor resolves the (Model, explicit predictor) pair the
// screening engine and the trajectory runner both carry into the one
// predictor all their workers share, and the layout its starts arrive
// in: the explicit predictor when given (the serving daemon lends its
// own, tests inject stubs — by contract it predicts in base), otherwise
// m in its own layout, otherwise nil — nothing to predict with. m is
// tested before it is converted, so cold callers may pass a nil *Model
// without it turning into a non-nil interface.
func PredictorFor(m *Model, explicit opf.Predictor, base *opf.Layout) (opf.Predictor, *opf.Layout) {
	switch {
	case explicit != nil:
		return explicit, base
	case m != nil:
		return m, &m.Lay
	}
	return nil, nil
}

// Save writes the model as one tensor snapshot (nn.SaveParams): the
// normalizer's ten vectors, then the weights in Params order.
func (m *Model) Save(w io.Writer) error {
	norm := m.Norm // normParams fills this copy's unset vectors, not m's
	ps, err := normParams(&norm, m.Lay)
	if err != nil {
		return err
	}
	return nn.SaveParams(w, append(ps, m.Params()...))
}

// Load builds a model for lay and cfg from a snapshot written by Save.
// Its tensors are allocated zero, with no init drawn, and filled in
// place. A snapshot of another format or version, a truncated one, or
// one shaped for another layout or configuration is rejected with nn's
// named errors (nn.ErrSnapshotFormat, nn.ErrSnapshotTruncated,
// nn.ErrSnapshotShape).
func Load(lay opf.Layout, cfg Config, r io.Reader) (*Model, error) {
	m := build(lay, cfg, nil)
	if err := m.load(r); err != nil {
		return nil, err
	}
	return m, nil
}

// load reads a snapshot into m's own tensors through nn.LoadParams'
// one buffer: it allocates the normalizer's vectors and nothing the size
// of a weight tensor. The bytes are hashed as they stream past, which
// is Fingerprint's answer until a weight changes. After an error m's
// weights are unspecified.
func (m *Model) load(r io.Reader) error {
	var norm Normalizer
	ps, _ := normParams(&norm, m.Lay) // all unset: cannot fail
	h := sha256.New()
	if err := nn.LoadParams(io.TeeReader(r, h), append(ps, m.Params()...)); err != nil {
		return err
	}
	m.Norm = norm
	m.loaded, m.loadedVer = hex.EncodeToString(h.Sum(nil)), m.weightsVersion()
	return nil
}

// weightsVersion sums the weights' Version counters: it moves whenever
// any of them is rewritten.
func (m *Model) weightsVersion() uint64 {
	var v uint64
	for _, p := range m.Params() {
		v += p.Version
	}
	return v
}

// normParams lists n's ten vectors in snapshot order as tensors of the
// lengths lay gives them. An unset vector (a model never trained) is
// set to zeros of its length; one of another length is an error.
func normParams(n *Normalizer, lay opf.Layout) ([]*nn.Param, error) {
	var ps []*nn.Param
	for _, r := range []struct {
		rng *Range
		n   int
	}{{&n.In, 2 * lay.NB}, {&n.X, lay.NX}, {&n.Lam, lay.NEq}, {&n.Mu, lay.NIq}, {&n.Z, lay.NIq}} {
		for _, v := range []*la.Vector{&r.rng.Min, &r.rng.Max} {
			if *v == nil {
				*v = make(la.Vector, r.n)
			}
			if len(*v) != r.n {
				return nil, fmt.Errorf("mtl: normalizer vector %d has %d values, layout wants %d", len(ps), len(*v), r.n)
			}
			ps = append(ps, &nn.Param{Name: "normalizer", Val: *v})
		}
	}
	return ps, nil
}

// Fingerprint returns the sha256 content hash of the model's serialized
// state (weights + normalization, the exact bytes Save writes). A model
// read by Load answers with the hash of the snapshot it streamed while
// no weight has changed since; otherwise Save's bytes are streamed
// through its one buffer into the hash, so nothing is copied. Two
// models with identical weights fingerprint identically regardless of
// how they were produced, so the lifecycle registry uses it as the
// version identity and the canary harness uses it to recognize an
// identical-weights candidate.
func (m *Model) Fingerprint() string {
	if m.loaded != "" && m.weightsVersion() == m.loadedVer {
		return m.loaded
	}
	h := sha256.New()
	if err := m.Save(h); err != nil {
		// Writing into a hash cannot fail; Save fails on a released
		// model (nn.ErrReleased) or on a normalizer shaped for another
		// layout, a broken model.
		panic(fmt.Errorf("mtl: fingerprinting model: %w", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hcat concatenates two batches column-wise.
func hcat(a, b *la.Matrix) *la.Matrix {
	if a.Rows != b.Rows {
		panic("mtl: hcat row mismatch")
	}
	out := la.NewMatrix(a.Rows, a.Cols+b.Cols)
	for r := 0; r < a.Rows; r++ {
		copy(out.Row(r)[:a.Cols], a.Row(r))
		copy(out.Row(r)[a.Cols:], b.Row(r))
	}
	return out
}

// hsplit splits a batch column-wise at column c.
func hsplit(m *la.Matrix, c int) (*la.Matrix, *la.Matrix) {
	a := la.NewMatrix(m.Rows, c)
	b := la.NewMatrix(m.Rows, m.Cols-c)
	for r := 0; r < m.Rows; r++ {
		copy(a.Row(r), m.Row(r)[:c])
		copy(b.Row(r), m.Row(r)[c:])
	}
	return a, b
}
