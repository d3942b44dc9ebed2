package core

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/batch"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/opf"
	"repro/internal/stats"
)

// FeatureAccuracy is one panel of Figure 6: normalized prediction vs
// ground truth for one feature group.
type FeatureAccuracy struct {
	Feature string
	R2      float64
	MaxDev  float64 // max |pred − truth| in normalized units
	MeanDev float64
	N       int
}

// predictAll runs the model on every sample's input, fanned out over
// the batch pool. Starts come back in sample order, so what callers
// accumulate from them does not depend on scheduling.
func predictAll(m *mtl.Model, val *dataset.Set) []*opf.Start {
	out, _ := batch.Map(len(val.Samples), batch.Options{}, func(t *batch.Task) (*opf.Start, error) {
		return m.Predict(val.Samples[t.Index].Input), nil
	})
	return out
}

// PredictionAccuracy reproduces Figure 6: per-feature agreement between
// the model's normalized predictions and the normalized ground truth on
// a validation set.
func PredictionAccuracy(sys *System, m *mtl.Model, val *dataset.Set) []FeatureAccuracy {
	lay := sys.OPF.Lay
	groups := []struct {
		name   string
		off, n int
		group  string // "X", "Lam", "Mu", "Z"
	}{
		{"X.Va", lay.VaOff, lay.NB, "X"},
		{"X.Vm", lay.VmOff, lay.NB, "X"},
		{"X.Pg", lay.PgOff, lay.NG, "X"},
		{"X.Qg", lay.QgOff, lay.NG, "X"},
		{"lambda", 0, lay.NEq, "Lam"},
		{"mu", 0, lay.NIq, "Mu"},
		{"z", 0, lay.NIq, "Z"},
	}
	// Model inference fans out over the pool; the per-feature streams are
	// then accumulated in sample order, keeping them scheduling-independent.
	var preds, truths [7][]float64
	for i, st := range predictAll(m, val) {
		s := &val.Samples[i]
		normPred := [4]la.Vector{
			m.Norm.X.NormalizeVec(st.X),
			m.Norm.Lam.NormalizeVec(st.Lam),
			m.Norm.Mu.NormalizeVec(st.Mu),
			m.Norm.Z.NormalizeVec(st.Z),
		}
		normTruth := [4]la.Vector{
			m.Norm.X.NormalizeVec(s.X),
			m.Norm.Lam.NormalizeVec(s.Lam),
			m.Norm.Mu.NormalizeVec(s.Mu),
			m.Norm.Z.NormalizeVec(s.Z),
		}
		for gi, g := range groups {
			var pv, tv la.Vector
			switch g.group {
			case "X":
				pv, tv = normPred[0], normTruth[0]
			case "Lam":
				pv, tv = normPred[1], normTruth[1]
			case "Mu":
				pv, tv = normPred[2], normTruth[2]
			case "Z":
				pv, tv = normPred[3], normTruth[3]
			}
			for k := g.off; k < g.off+g.n; k++ {
				preds[gi] = append(preds[gi], pv[k])
				truths[gi] = append(truths[gi], tv[k])
			}
		}
	}
	out := make([]FeatureAccuracy, len(groups))
	for gi, g := range groups {
		devs := make([]float64, len(preds[gi]))
		maxDev := 0.0
		for i := range preds[gi] {
			d := math.Abs(preds[gi][i] - truths[gi][i])
			devs[i] = d
			if d > maxDev {
				maxDev = d
			}
		}
		out[gi] = FeatureAccuracy{
			Feature: g.name,
			R2:      stats.R2(preds[gi], truths[gi]),
			MaxDev:  maxDev,
			MeanDev: stats.Mean(devs),
			N:       len(preds[gi]),
		}
	}
	return out
}

// PrintFig6 renders the per-feature accuracy rows.
func PrintFig6(w io.Writer, acc []FeatureAccuracy) {
	fmt.Fprintln(w, "Figure 6 — prediction vs ground truth (normalized)")
	fmt.Fprintf(w, "%-8s %8s %10s %10s %8s\n", "feature", "R2", "meanDev", "maxDev", "points")
	for _, a := range acc {
		fmt.Fprintf(w, "%-8s %8.4f %10.4f %10.4f %8d\n", a.Feature, a.R2, a.MeanDev, a.MaxDev, a.N)
	}
}

// VariantResult is one bar group of Figure 7 plus the error box of
// Figure 8 for a model variant.
type VariantResult struct {
	Variant  mtl.Variant
	SU       float64
	SR       float64
	ErrorBox stats.Box // relative error |pred−gt|/|gt| over X features
}

// CompareModels trains the three variants of Figure 7 on the same data
// and evaluates speedup, success rate and relative prediction error.
func CompareModels(sys *System, train, val *dataset.Set, epochs int, seed int64, maxProblems int, logf func(string, ...any)) ([]VariantResult, error) {
	variants := []mtl.Variant{mtl.VariantSeparate, mtl.VariantMTL, mtl.VariantSmartPGSim}
	out := make([]VariantResult, 0, len(variants))
	for _, v := range variants {
		m, err := sys.TrainModel(v, train, epochs, seed, logf)
		if err != nil {
			return nil, err
		}
		ev := Evaluate(sys, m, val, maxProblems)
		out = append(out, VariantResult{
			Variant:  v,
			SU:       ev.SU,
			SR:       ev.SR,
			ErrorBox: relativeErrorBox(m, val),
		})
	}
	return out, nil
}

// relativeErrorBox computes the Figure 8 box statistics: RE =
// |pred − gt| / |gt| over the X features of every validation sample
// (entries with |gt| below a floor are skipped, matching the paper's
// use of relative error).
func relativeErrorBox(m *mtl.Model, val *dataset.Set) stats.Box {
	const floor = 1e-3
	var res []float64
	for i, st := range predictAll(m, val) {
		for k, gt := range val.Samples[i].X {
			if math.Abs(gt) < floor {
				continue
			}
			res = append(res, math.Abs(st.X[k]-gt)/math.Abs(gt))
		}
	}
	return stats.BoxStats(res)
}

// PrintFig7 renders the speedup/success-rate comparison.
func PrintFig7(w io.Writer, system string, rows []VariantResult) {
	fmt.Fprintf(w, "Figure 7 — model variants on %s\n", system)
	fmt.Fprintf(w, "%-14s %8s %8s\n", "variant", "SU", "SR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %7.2fx %7.1f%%\n", r.Variant, r.SU, r.SR*100)
	}
}

// PrintFig8 renders the relative-error box plots.
func PrintFig8(w io.Writer, system string, rows []VariantResult) {
	fmt.Fprintf(w, "Figure 8 — relative prediction error on %s\n", system)
	fmt.Fprintf(w, "%-14s %10s %10s %10s %10s %10s\n", "variant", "min", "q1", "median", "q3", "mean")
	for _, r := range rows {
		b := r.ErrorBox
		fmt.Fprintf(w, "%-14s %10.2e %10.2e %10.2e %10.2e %10.2e\n",
			r.Variant, b.Min, b.Q1, b.Median, b.Q3, b.Mean)
	}
}

// ReplacementResult is one system column of Table III: treating the MTL
// prediction as the final solution (no solver refinement).
type ReplacementResult struct {
	System string
	SF     float64 // mean T_MIPS / T_MTL per problem
	Lcost  float64 // mean |1 − C'/C| in percent
}

// ReplacementStudy reproduces Table III for one trained system.
func ReplacementStudy(sys *System, m *mtl.Model, val *dataset.Set, maxProblems int) ReplacementResult {
	n := len(val.Samples)
	if maxProblems > 0 && n > maxProblems {
		n = maxProblems
	}
	// SF is defined by the per-inference wall time, so this sweep stays
	// sequential on purpose: timing Predict while sibling workers
	// saturate the cores would fold scheduler contention into a paper
	// metric. The whole loop is inference-only and cheap.
	var sfs, lcosts []float64
	for i := 0; i < n; i++ {
		s := &val.Samples[i]
		t0 := time.Now()
		st := m.Predict(s.Input)
		tMTL := time.Since(t0)
		if tMTL <= 0 {
			tMTL = time.Nanosecond
		}
		// Cost of the predicted dispatch vs the true optimal cost.
		predCost := sys.OPF.Cost(st.X)
		if s.Cost > 0 {
			lcosts = append(lcosts, math.Abs(1-predCost/s.Cost)*100)
		}
		if s.SolveTime > 0 {
			sfs = append(sfs, float64(s.SolveTime)/float64(tMTL))
		}
	}
	return ReplacementResult{System: sys.Name, SF: stats.Mean(sfs), Lcost: stats.Mean(lcosts)}
}

// PrintTableIII renders the replacement-study rows.
func PrintTableIII(w io.Writer, rows []ReplacementResult) {
	fmt.Fprintln(w, "Table III — NN-as-final-solution (no solver refinement)")
	fmt.Fprintf(w, "%-10s %12s %10s\n", "system", "SF", "Lcost")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %11.2fx %9.3f%%\n", r.System, r.SF, r.Lcost)
	}
}
