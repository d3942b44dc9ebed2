package mtl

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/nn"
)

// auxWeight is the Charbonnier weight of the λ/µ/Z tasks; the X tasks
// weigh 1.
const auxWeight = 0.5

// logEvery is the epoch period of TrainConfig.Logf's lines.
const logEvery = 10

// TrainConfig controls the optimization loop.
type TrainConfig struct {
	Epochs    int     // default 60
	BatchSize int     // default 32
	LR        float64 // default 1e-3
	Seed      int64
	// Logf, when non-nil, receives one line every logEvery epochs and
	// one for the last.
	Logf func(format string, args ...any)
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	return c
}

// History records per-epoch training losses.
type History struct {
	Supervised []float64 // Charbonnier total
	Physics    []float64 // weighted physics total (0 when disabled)
}

// Train fits the model on the set. phys may be nil for variants without
// physics losses; it is required (and only used) when the model config
// enables any physics weight.
func Train(m *Model, phys *Physics, set *dataset.Set, cfg TrainConfig) (*History, error) {
	cfg = cfg.withDefaults()
	if len(set.Samples) == 0 {
		return nil, fmt.Errorf("mtl: empty training set")
	}
	usePhysics := m.Cfg.Physics != (PhysicsWeights{})
	if usePhysics && phys == nil {
		return nil, fmt.Errorf("mtl: physics weights set but no Physics provider")
	}

	// Fit normalization on the training data.
	inputs := set.Inputs()
	xs := set.Stack(func(s *dataset.Sample) la.Vector { return s.X })
	lams := set.Stack(func(s *dataset.Sample) la.Vector { return s.Lam })
	mus := set.Stack(func(s *dataset.Sample) la.Vector { return s.Mu })
	zs := set.Stack(func(s *dataset.Sample) la.Vector { return s.Z })
	m.Norm = Normalizer{
		In: FitRange(inputs), X: FitRange(xs), Lam: FitRange(lams),
		Mu: FitRange(mus), Z: FitRange(zs),
	}
	m.loaded = "" // the normalizer moved, whether or not a weight does
	inN := m.Norm.In.Normalize(inputs)
	xN := m.Norm.X.Normalize(xs)
	lamN := m.Norm.Lam.Normalize(lams)
	muN := m.Norm.Mu.Normalize(mus)
	zN := m.Norm.Z.Normalize(zs)

	n := len(set.Samples)
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(m.Params(), cfg.LR)
	hist := &History{}
	lossMain := nn.Charbonnier{Eps: 1e-9}
	step := 0

	for ep := 0; ep < cfg.Epochs; ep++ {
		perm := rng.Perm(n)
		epSup, epPhy := 0.0, 0.0
		nbatch := 0
		for lo := 0; lo < n; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			idx := perm[lo:hi]
			bIn := gather(inN, idx)
			bX := gather(xN, idx)
			bLam := gather(lamN, idx)
			bMu := gather(muN, idx)
			bZ := gather(zN, idx)

			nn.ZeroGrads(m.Params())
			pred := m.Forward(bIn)

			lx, gx := lossMain.Eval(pred.X, bX)
			ll, gl := lossMain.Eval(pred.Lam, bLam)
			lm, gm := lossMain.Eval(pred.Mu, bMu)
			lz, gz := lossMain.Eval(pred.Z, bZ)
			gl.Scale(auxWeight)
			gm.Scale(auxWeight)
			gz.Scale(auxWeight)
			sup := lx + auxWeight*(ll+lm+lz)

			phy := 0.0
			if usePhysics {
				phy = m.addPhysicsGrads(phys, set, idx, pred, gx, gl, gm, gz)
			}

			detach := m.Cfg.DetachPeriod > 0 && step%m.Cfg.DetachPeriod == 0
			m.Backward(&Pred{X: gx, Lam: gl, Mu: gm, Z: gz}, detach)
			opt.Step()
			step++
			epSup += sup
			epPhy += phy
			nbatch++
		}
		hist.Supervised = append(hist.Supervised, epSup/float64(nbatch))
		hist.Physics = append(hist.Physics, epPhy/float64(nbatch))
		if cfg.Logf != nil && (ep%logEvery == 0 || ep == cfg.Epochs-1) {
			cfg.Logf("mtl[%s] epoch %3d/%d supervised %.5f physics %.5f",
				m.Cfg.Variant, ep+1, cfg.Epochs, epSup/float64(nbatch), epPhy/float64(nbatch))
		}
	}
	m.Warmup()
	return hist, nil
}

// addPhysicsGrads computes the physics losses in physical space for each
// batch sample, chains them into the normalized gradient matrices, and
// returns the weighted batch-average physics loss.
func (m *Model) addPhysicsGrads(phys *Physics, set *dataset.Set, idx []int, pred *Pred, gx, gl, gm, gz *la.Matrix) float64 {
	w := m.Cfg.Physics
	bn := float64(len(idx))
	total := 0.0
	for r, si := range idx {
		s := &set.Samples[si]
		x := m.Norm.X.DenormalizeVec(pred.X.Row(r))
		lam := m.Norm.Lam.DenormalizeVec(pred.Lam.Row(r))
		mu := m.Norm.Mu.DenormalizeVec(pred.Mu.Row(r))
		z := m.Norm.Z.DenormalizeVec(pred.Z.Row(r))

		accX := make(la.Vector, len(x))
		accLam := make(la.Vector, len(lam))
		accMu := make(la.Vector, len(mu))
		accZ := make(la.Vector, len(z))

		if w.AC != 0 {
			l, g := phys.AC(x, s.Input)
			total += w.AC * l
			accX.AddScaled(w.AC, g)
		}
		if w.Ieq != 0 {
			l, g := phys.Ieq(x)
			total += w.Ieq * l
			accX.AddScaled(w.Ieq, g)
		}
		if w.Cost != 0 {
			l, g := phys.Cost(x, s.Cost)
			total += w.Cost * l
			accX.AddScaled(w.Cost, g)
		}
		if w.Lag != 0 {
			l, gxl, gll, gml, gzl := phys.Lag(x, lam, mu, z, s.Input)
			total += w.Lag * l
			accX.AddScaled(w.Lag, gxl)
			accLam.AddScaled(w.Lag, gll)
			accMu.AddScaled(w.Lag, gml)
			accZ.AddScaled(w.Lag, gzl)
		}

		// Chain rule into normalized space, averaged over the batch.
		gx.Row(r).AddScaled(1/bn, m.Norm.X.ChainGrad(accX))
		gl.Row(r).AddScaled(1/bn, m.Norm.Lam.ChainGrad(accLam))
		gm.Row(r).AddScaled(1/bn, m.Norm.Mu.ChainGrad(accMu))
		gz.Row(r).AddScaled(1/bn, m.Norm.Z.ChainGrad(accZ))
	}
	return total / bn
}

// gather selects rows of m by index.
func gather(m *la.Matrix, idx []int) *la.Matrix {
	out := la.NewMatrix(len(idx), m.Cols)
	for r, i := range idx {
		copy(out.Row(r), m.Row(i))
	}
	return out
}
