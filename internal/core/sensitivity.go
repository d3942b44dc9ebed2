package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/batch"
	"repro/internal/dataset"
	"repro/internal/opf"
	"repro/internal/stats"
)

// SensCombo selects which of the four warm-start components use precise
// (ground-truth) data; the rest use the imprecise MIPS defaults. The 16
// combinations reproduce Table I.
type SensCombo struct {
	X, Lam, Mu, Z bool
}

// Label renders the combo as the paper's 0/1 row header.
func (c SensCombo) Label() string {
	b := func(v bool) byte {
		if v {
			return '1'
		}
		return '0'
	}
	return string([]byte{b(c.X), ' ', b(c.Lam), ' ', b(c.Mu), ' ', b(c.Z)})
}

// AllCombos lists the 16 rows of Table I in the paper's order
// (X, λ, µ, Z as a binary counter with X most significant).
func AllCombos() []SensCombo {
	out := make([]SensCombo, 0, 16)
	for i := 0; i < 16; i++ {
		out = append(out, SensCombo{
			X:   i&8 != 0,
			Lam: i&4 != 0,
			Mu:  i&2 != 0,
			Z:   i&1 != 0,
		})
	}
	return out
}

// SensRow is one (system, combo) cell pair of Table I.
type SensRow struct {
	Combo SensCombo
	// SR is the fraction of problems that converged from this start.
	SR float64
	// SU is the mean speedup of the successful solves relative to the
	// all-default baseline solve of the same problem (time-based, as in
	// the paper). NaN when SR = 0. Wall-clock based, so it is reported
	// but never asserted on; Iters is the deterministic counterpart.
	SU float64
	// Iters is the mean interior-point iteration count of the successful
	// solves (0 when SR = 0).
	Iters float64
}

// SensitivityStudy reproduces one system column of Table I: for every
// combination of precise/imprecise initialization components, solve each
// sampled problem and record success rate and speedup. The dataset
// provides both the problems and their ground-truth solver states. The
// 16×n solve grid is flattened onto the batch worker pool; rows are
// aggregated in (combo, problem) order, so the SR column is identical to
// a sequential run (SU is time-based and inherently noisy).
func SensitivityStudy(sys *System, set *dataset.Set, maxProblems int) []SensRow {
	n := len(set.Samples)
	if maxProblems > 0 && n > maxProblems {
		n = maxProblems
	}
	combos := AllCombos()
	rows := make([]SensRow, len(combos))
	if n == 0 {
		return rows
	}

	// Baseline (all imprecise) times per problem.
	baseTime, _ := batch.Map(n, 0, func(i int) (time.Duration, error) {
		o := sys.OPF.Perturb(set.Samples[i].Factors)
		r, err := o.Solve(nil, opf.Options{})
		if err != nil || !r.Converged {
			// The dataset only contains solvable instances, so this
			// should not happen; guard regardless.
			return -1, nil
		}
		return r.SolveTime, nil
	})

	// One task per (combo, problem) cell.
	type cell struct {
		ok    bool
		su    float64
		iters int
	}
	cells, _ := batch.Map(len(combos)*n, 0, func(k int) (cell, error) {
		combo := combos[k/n]
		i := k % n
		if baseTime[i] < 0 {
			return cell{}, nil
		}
		s := &set.Samples[i]
		o := sys.OPF.Perturb(s.Factors)
		start := &opf.Start{}
		if combo.X {
			start.X = s.X
		}
		if combo.Lam {
			start.Lam = s.Lam
		}
		if combo.Mu {
			start.Mu = s.Mu
		}
		if combo.Z {
			start.Z = s.Z
		}
		// An all-default start seeds nothing: it is the cold solve.
		r, err := o.Solve(start, opf.Options{})
		if err != nil || !r.Converged {
			return cell{}, nil
		}
		return cell{ok: true, su: float64(baseTime[i]) / float64(r.SolveTime), iters: r.Iterations}, nil
	})

	for ci, combo := range combos {
		var iters int
		var sus []float64
		for i := 0; i < n; i++ {
			c := cells[ci*n+i]
			if c.ok {
				iters += c.iters
				sus = append(sus, c.su)
			}
		}
		row := SensRow{Combo: combo, SR: float64(len(sus)) / float64(n)}
		if len(sus) > 0 {
			row.SU = stats.GeoMean(sus)
			row.Iters = float64(iters) / float64(len(sus))
		}
		rows[ci] = row
	}
	return rows
}

// PrintTableI renders sensitivity rows for several systems side by side,
// matching the layout of Table I.
func PrintTableI(w io.Writer, systems []string, results map[string][]SensRow) {
	fmt.Fprintf(w, "Table I — ablation on warm-start components (SR %%, SU ×)\n")
	fmt.Fprintf(w, "%-12s", "X λ µ Z")
	for _, s := range systems {
		fmt.Fprintf(w, " | %-14s", s)
	}
	fmt.Fprintln(w)
	for ci, combo := range AllCombos() {
		fmt.Fprintf(w, "%-12s", combo.Label())
		for _, s := range systems {
			rows := results[s]
			if rows == nil {
				fmt.Fprintf(w, " | %-14s", "-")
				continue
			}
			r := rows[ci]
			if r.SR == 0 {
				fmt.Fprintf(w, " | %3.0f%%      --  ", r.SR*100)
			} else {
				fmt.Fprintf(w, " | %3.0f%%  %6.2fx ", r.SR*100, r.SU)
			}
		}
		fmt.Fprintln(w)
	}
}
