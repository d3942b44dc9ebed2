package grid

import "math"

// Embedded reference systems — data provenance, units and conventions.
//
// All embedded cases use the Matpower column conventions: powers in
// MW/MVAr on the case's MVA base, impedances and line charging in per
// unit on that base, voltages in per unit, angles in degrees, and
// transformer taps as the off-nominal Ratio on the from side (0 means a
// plain line). Each case stores an operating point (bus Vm/Va and
// generator dispatch): the source file's printed solution, or for
// case300 and case1354 the certifying OPF optimum of their synthesis,
// which balances power to rounding.
//
// Provenance by case:
//
//   - Case9, Case14, Case30: transcribed from the standard Matpower case
//     files (WSCC 9-bus; IEEE 14-bus; IEEE 30-bus with the OPF cost set).
//   - Case5: the PJM 5-bus system (linear costs).
//   - Case57, Case118: transcribed from the Matpower case57/case118
//     files (IEEE 57- and 118-bus systems), stored as compact
//     Matpower-style data tables in cases57.go and cases118.go.
//   - Case300: the 300-bus evaluation system of the paper's Table II,
//     embedded in cases300.go as a frozen, deterministic 300-bus grid
//     with the IEEE 300-bus system's size profile (300 buses, 69
//     generators, 411 branches). The original case300 file is not
//     redistributed here; the data was produced once by the certified
//     synthesis procedure of internal/casegen and is now static, so it
//     cannot drift with the generator.
//
// Rated-branch convention: the paper's inequality set includes branch
// MVA flow limits, but the IEEE 57/118/300-bus case files carry no
// finite ratings. Every embedded system therefore guarantees a fully
// rated branch set: cases whose source file has ratings (case5, case9,
// case30) keep them verbatim, and the others derive ratings with
// RateBranches at ratedHeadroom× the apparent-power flow of the stored
// operating point, floored at ratedFloorMVA — the same convention
// internal/casegen certifies synthetic systems with. case14 keeps its
// unrated source data (the no-flow-constraint regression case).

// Case9 returns the WSCC 3-machine 9-bus system (file ratings on all
// branches; provenance and conventions in the comment above).
func Case9() *Case {
	c := &Case{
		Name:    "case9",
		BaseMVA: 100,
		Buses: []Bus{
			{ID: 1, Type: Ref, Vm: 1, BaseKV: 345, Vmax: 1.1, Vmin: 0.9},
			{ID: 2, Type: PV, Vm: 1, BaseKV: 345, Vmax: 1.1, Vmin: 0.9},
			{ID: 3, Type: PV, Vm: 1, BaseKV: 345, Vmax: 1.1, Vmin: 0.9},
			{ID: 4, Type: PQ, Vm: 1, BaseKV: 345, Vmax: 1.1, Vmin: 0.9},
			{ID: 5, Type: PQ, Pd: 90, Qd: 30, Vm: 1, BaseKV: 345, Vmax: 1.1, Vmin: 0.9},
			{ID: 6, Type: PQ, Vm: 1, BaseKV: 345, Vmax: 1.1, Vmin: 0.9},
			{ID: 7, Type: PQ, Pd: 100, Qd: 35, Vm: 1, BaseKV: 345, Vmax: 1.1, Vmin: 0.9},
			{ID: 8, Type: PQ, Vm: 1, BaseKV: 345, Vmax: 1.1, Vmin: 0.9},
			{ID: 9, Type: PQ, Pd: 125, Qd: 50, Vm: 1, BaseKV: 345, Vmax: 1.1, Vmin: 0.9},
		},
		Gens: []Gen{
			{Bus: 1, Pg: 72.3, Qg: 27.03, Qmax: 300, Qmin: -300, Vg: 1.04, Pmax: 250, Pmin: 10, Status: true, Cost: PolyCost{C2: 0.11, C1: 5, C0: 150}},
			{Bus: 2, Pg: 163, Qg: 6.54, Qmax: 300, Qmin: -300, Vg: 1.025, Pmax: 300, Pmin: 10, Status: true, Cost: PolyCost{C2: 0.085, C1: 1.2, C0: 600}},
			{Bus: 3, Pg: 85, Qg: -10.95, Qmax: 300, Qmin: -300, Vg: 1.025, Pmax: 270, Pmin: 10, Status: true, Cost: PolyCost{C2: 0.1225, C1: 1, C0: 335}},
		},
		Branches: []Branch{
			{From: 1, To: 4, X: 0.0576, RateA: 250, Status: true},
			{From: 4, To: 5, R: 0.017, X: 0.092, B: 0.158, RateA: 250, Status: true},
			{From: 5, To: 6, R: 0.039, X: 0.17, B: 0.358, RateA: 150, Status: true},
			{From: 3, To: 6, X: 0.0586, RateA: 300, Status: true},
			{From: 6, To: 7, R: 0.0119, X: 0.1008, B: 0.209, RateA: 150, Status: true},
			{From: 7, To: 8, R: 0.0085, X: 0.072, B: 0.149, RateA: 250, Status: true},
			{From: 8, To: 2, X: 0.0625, RateA: 250, Status: true},
			{From: 8, To: 9, R: 0.032, X: 0.161, B: 0.306, RateA: 250, Status: true},
			{From: 9, To: 4, R: 0.01, X: 0.085, B: 0.176, RateA: 250, Status: true},
		},
	}
	mustNormalize(c)
	return c
}

// Case5 returns the PJM 5-bus system (linear generation costs, file
// ratings on all branches).
func Case5() *Case {
	c := &Case{
		Name:    "case5",
		BaseMVA: 100,
		Buses: []Bus{
			{ID: 1, Type: PV, Vm: 1, BaseKV: 230, Vmax: 1.1, Vmin: 0.9},
			{ID: 2, Type: PQ, Pd: 300, Qd: 98.61, Vm: 1, BaseKV: 230, Vmax: 1.1, Vmin: 0.9},
			{ID: 3, Type: PV, Pd: 300, Qd: 98.61, Vm: 1, BaseKV: 230, Vmax: 1.1, Vmin: 0.9},
			{ID: 4, Type: Ref, Pd: 400, Qd: 131.47, Vm: 1, BaseKV: 230, Vmax: 1.1, Vmin: 0.9},
			{ID: 5, Type: PV, Vm: 1, BaseKV: 230, Vmax: 1.1, Vmin: 0.9},
		},
		Gens: []Gen{
			{Bus: 1, Pg: 40, Qmax: 30, Qmin: -30, Vg: 1, Pmax: 40, Pmin: 0, Status: true, Cost: PolyCost{C1: 14}},
			{Bus: 1, Pg: 170, Qmax: 127.5, Qmin: -127.5, Vg: 1, Pmax: 170, Pmin: 0, Status: true, Cost: PolyCost{C1: 15}},
			{Bus: 3, Pg: 323.49, Qmax: 390, Qmin: -390, Vg: 1, Pmax: 520, Pmin: 0, Status: true, Cost: PolyCost{C1: 30}},
			{Bus: 4, Pg: 0, Qmax: 150, Qmin: -150, Vg: 1, Pmax: 200, Pmin: 0, Status: true, Cost: PolyCost{C1: 40}},
			{Bus: 5, Pg: 466.51, Qmax: 450, Qmin: -450, Vg: 1, Pmax: 600, Pmin: 0, Status: true, Cost: PolyCost{C1: 10}},
		},
		Branches: []Branch{
			{From: 1, To: 2, R: 0.00281, X: 0.0281, B: 0.00712, RateA: 400, Status: true},
			{From: 1, To: 4, R: 0.00304, X: 0.0304, B: 0.00658, RateA: 426, Status: true},
			{From: 1, To: 5, R: 0.00064, X: 0.0064, B: 0.03126, RateA: 426, Status: true},
			{From: 2, To: 3, R: 0.00108, X: 0.0108, B: 0.01852, RateA: 426, Status: true},
			{From: 3, To: 4, R: 0.00297, X: 0.0297, B: 0.00674, RateA: 426, Status: true},
			{From: 4, To: 5, R: 0.00297, X: 0.0297, B: 0.00674, RateA: 240, Status: true},
		},
	}
	mustNormalize(c)
	return c
}

// Case14 returns the IEEE 14-bus system — the file carries no branch
// ratings and none are derived, keeping it the no-flow-constraint
// regression case (Layout.NLRated = 0).
func Case14() *Case {
	c := &Case{
		Name:    "case14",
		BaseMVA: 100,
		Buses: []Bus{
			{ID: 1, Type: Ref, Vm: 1.06, BaseKV: 0, Vmax: 1.06, Vmin: 0.94},
			{ID: 2, Type: PV, Pd: 21.7, Qd: 12.7, Vm: 1.045, Va: -4.98, Vmax: 1.06, Vmin: 0.94},
			{ID: 3, Type: PV, Pd: 94.2, Qd: 19, Vm: 1.01, Va: -12.72, Vmax: 1.06, Vmin: 0.94},
			{ID: 4, Type: PQ, Pd: 47.8, Qd: -3.9, Vm: 1.019, Va: -10.33, Vmax: 1.06, Vmin: 0.94},
			{ID: 5, Type: PQ, Pd: 7.6, Qd: 1.6, Vm: 1.02, Va: -8.78, Vmax: 1.06, Vmin: 0.94},
			{ID: 6, Type: PV, Pd: 11.2, Qd: 7.5, Vm: 1.07, Va: -14.22, Vmax: 1.06, Vmin: 0.94},
			{ID: 7, Type: PQ, Vm: 1.062, Va: -13.37, Vmax: 1.06, Vmin: 0.94},
			{ID: 8, Type: PV, Vm: 1.09, Va: -13.36, Vmax: 1.06, Vmin: 0.94},
			{ID: 9, Type: PQ, Pd: 29.5, Qd: 16.6, Bs: 19, Vm: 1.056, Va: -14.94, Vmax: 1.06, Vmin: 0.94},
			{ID: 10, Type: PQ, Pd: 9, Qd: 5.8, Vm: 1.051, Va: -15.1, Vmax: 1.06, Vmin: 0.94},
			{ID: 11, Type: PQ, Pd: 3.5, Qd: 1.8, Vm: 1.057, Va: -14.79, Vmax: 1.06, Vmin: 0.94},
			{ID: 12, Type: PQ, Pd: 6.1, Qd: 1.6, Vm: 1.055, Va: -15.07, Vmax: 1.06, Vmin: 0.94},
			{ID: 13, Type: PQ, Pd: 13.5, Qd: 5.8, Vm: 1.05, Va: -15.16, Vmax: 1.06, Vmin: 0.94},
			{ID: 14, Type: PQ, Pd: 14.9, Qd: 5, Vm: 1.036, Va: -16.04, Vmax: 1.06, Vmin: 0.94},
		},
		Gens: []Gen{
			{Bus: 1, Pg: 232.4, Qg: -16.9, Qmax: 10, Qmin: 0, Vg: 1.06, Pmax: 332.4, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.0430293, C1: 20}},
			{Bus: 2, Pg: 40, Qg: 42.4, Qmax: 50, Qmin: -40, Vg: 1.045, Pmax: 140, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.25, C1: 20}},
			{Bus: 3, Pg: 0, Qg: 23.4, Qmax: 40, Qmin: 0, Vg: 1.01, Pmax: 100, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.01, C1: 40}},
			{Bus: 6, Pg: 0, Qg: 12.2, Qmax: 24, Qmin: -6, Vg: 1.07, Pmax: 100, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.01, C1: 40}},
			{Bus: 8, Pg: 0, Qg: 17.4, Qmax: 24, Qmin: -6, Vg: 1.09, Pmax: 100, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.01, C1: 40}},
		},
		Branches: []Branch{
			{From: 1, To: 2, R: 0.01938, X: 0.05917, B: 0.0528, Status: true},
			{From: 1, To: 5, R: 0.05403, X: 0.22304, B: 0.0492, Status: true},
			{From: 2, To: 3, R: 0.04699, X: 0.19797, B: 0.0438, Status: true},
			{From: 2, To: 4, R: 0.05811, X: 0.17632, B: 0.034, Status: true},
			{From: 2, To: 5, R: 0.05695, X: 0.17388, B: 0.0346, Status: true},
			{From: 3, To: 4, R: 0.06701, X: 0.17103, B: 0.0128, Status: true},
			{From: 4, To: 5, R: 0.01335, X: 0.04211, B: 0.0064, Status: true},
			{From: 4, To: 7, X: 0.20912, Ratio: 0.978, Status: true},
			{From: 4, To: 9, X: 0.55618, Ratio: 0.969, Status: true},
			{From: 5, To: 6, X: 0.25202, Ratio: 0.932, Status: true},
			{From: 6, To: 11, R: 0.09498, X: 0.1989, Status: true},
			{From: 6, To: 12, R: 0.12291, X: 0.25581, Status: true},
			{From: 6, To: 13, R: 0.06615, X: 0.13027, Status: true},
			{From: 7, To: 8, X: 0.17615, Status: true},
			{From: 7, To: 9, X: 0.11001, Status: true},
			{From: 9, To: 10, R: 0.03181, X: 0.0845, Status: true},
			{From: 9, To: 14, R: 0.12711, X: 0.27038, Status: true},
			{From: 10, To: 11, R: 0.08205, X: 0.19207, Status: true},
			{From: 12, To: 13, R: 0.22092, X: 0.19988, Status: true},
			{From: 13, To: 14, R: 0.17093, X: 0.34802, Status: true},
		},
	}
	mustNormalize(c)
	return c
}

// Case30 returns the IEEE 30-bus system with the standard OPF cost data
// and the file's flow limits on every branch — the smallest embedded
// system where an N-1 outage changes the inequality layout, which the
// contingency-screening engine's warm-start projection is built for
// (see internal/scopf).
func Case30() *Case {
	c := &Case{
		Name:    "case30",
		BaseMVA: 100,
		Buses: []Bus{
			{ID: 1, Type: Ref, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 2, Type: PV, Pd: 21.7, Qd: 12.7, Vm: 1, BaseKV: 135, Vmax: 1.1, Vmin: 0.95},
			{ID: 3, Type: PQ, Pd: 2.4, Qd: 1.2, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 4, Type: PQ, Pd: 7.6, Qd: 1.6, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 5, Type: PQ, Bs: 19, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 6, Type: PQ, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 7, Type: PQ, Pd: 22.8, Qd: 10.9, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 8, Type: PQ, Pd: 30, Qd: 30, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 9, Type: PQ, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 10, Type: PQ, Pd: 5.8, Qd: 2, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 11, Type: PQ, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 12, Type: PQ, Pd: 11.2, Qd: 7.5, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 13, Type: PV, Vm: 1, BaseKV: 135, Vmax: 1.1, Vmin: 0.95},
			{ID: 14, Type: PQ, Pd: 6.2, Qd: 1.6, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 15, Type: PQ, Pd: 8.2, Qd: 2.5, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 16, Type: PQ, Pd: 3.5, Qd: 1.8, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 17, Type: PQ, Pd: 9, Qd: 5.8, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 18, Type: PQ, Pd: 3.2, Qd: 0.9, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 19, Type: PQ, Pd: 9.5, Qd: 3.4, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 20, Type: PQ, Pd: 2.2, Qd: 0.7, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 21, Type: PQ, Pd: 17.5, Qd: 11.2, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 22, Type: PV, Vm: 1, BaseKV: 135, Vmax: 1.1, Vmin: 0.95},
			{ID: 23, Type: PV, Pd: 3.2, Qd: 1.6, Vm: 1, BaseKV: 135, Vmax: 1.1, Vmin: 0.95},
			{ID: 24, Type: PQ, Pd: 8.7, Qd: 6.7, Bs: 4, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 25, Type: PQ, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 26, Type: PQ, Pd: 3.5, Qd: 2.3, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 27, Type: PV, Vm: 1, BaseKV: 135, Vmax: 1.1, Vmin: 0.95},
			{ID: 28, Type: PQ, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 29, Type: PQ, Pd: 2.4, Qd: 0.9, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
			{ID: 30, Type: PQ, Pd: 10.6, Qd: 1.9, Vm: 1, BaseKV: 135, Vmax: 1.05, Vmin: 0.95},
		},
		Gens: []Gen{
			{Bus: 1, Pg: 23.54, Qmax: 150, Qmin: -20, Vg: 1, Pmax: 80, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.02, C1: 2}},
			{Bus: 2, Pg: 60.97, Qmax: 60, Qmin: -20, Vg: 1, Pmax: 80, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.0175, C1: 1.75}},
			{Bus: 22, Pg: 21.59, Qmax: 62.5, Qmin: -15, Vg: 1, Pmax: 50, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.0625, C1: 1}},
			{Bus: 27, Pg: 26.91, Qmax: 48.7, Qmin: -15, Vg: 1, Pmax: 55, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.00834, C1: 3.25}},
			{Bus: 23, Pg: 19.2, Qmax: 40, Qmin: -10, Vg: 1, Pmax: 30, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.025, C1: 3}},
			{Bus: 13, Pg: 37, Qmax: 44.7, Qmin: -15, Vg: 1, Pmax: 40, Pmin: 0, Status: true, Cost: PolyCost{C2: 0.025, C1: 3}},
		},
		Branches: []Branch{
			{From: 1, To: 2, R: 0.02, X: 0.06, B: 0.03, RateA: 130, Status: true},
			{From: 1, To: 3, R: 0.05, X: 0.19, B: 0.02, RateA: 130, Status: true},
			{From: 2, To: 4, R: 0.06, X: 0.17, B: 0.02, RateA: 65, Status: true},
			{From: 3, To: 4, R: 0.01, X: 0.04, RateA: 130, Status: true},
			{From: 2, To: 5, R: 0.05, X: 0.2, B: 0.02, RateA: 130, Status: true},
			{From: 2, To: 6, R: 0.06, X: 0.18, B: 0.02, RateA: 65, Status: true},
			{From: 4, To: 6, R: 0.01, X: 0.04, RateA: 90, Status: true},
			{From: 5, To: 7, R: 0.05, X: 0.12, B: 0.01, RateA: 70, Status: true},
			{From: 6, To: 7, R: 0.03, X: 0.08, B: 0.01, RateA: 130, Status: true},
			{From: 6, To: 8, R: 0.01, X: 0.04, RateA: 32, Status: true},
			{From: 6, To: 9, X: 0.21, RateA: 65, Status: true},
			{From: 6, To: 10, X: 0.56, RateA: 32, Status: true},
			{From: 9, To: 11, X: 0.21, RateA: 65, Status: true},
			{From: 9, To: 10, X: 0.11, RateA: 65, Status: true},
			{From: 4, To: 12, X: 0.26, RateA: 65, Status: true},
			{From: 12, To: 13, X: 0.14, RateA: 65, Status: true},
			{From: 12, To: 14, R: 0.12, X: 0.26, RateA: 32, Status: true},
			{From: 12, To: 15, R: 0.07, X: 0.13, RateA: 32, Status: true},
			{From: 12, To: 16, R: 0.09, X: 0.2, RateA: 32, Status: true},
			{From: 14, To: 15, R: 0.22, X: 0.2, RateA: 16, Status: true},
			{From: 16, To: 17, R: 0.08, X: 0.19, RateA: 16, Status: true},
			{From: 15, To: 18, R: 0.11, X: 0.22, RateA: 16, Status: true},
			{From: 18, To: 19, R: 0.06, X: 0.13, RateA: 16, Status: true},
			{From: 19, To: 20, R: 0.03, X: 0.07, RateA: 32, Status: true},
			{From: 10, To: 20, R: 0.09, X: 0.21, RateA: 32, Status: true},
			{From: 10, To: 17, R: 0.03, X: 0.08, RateA: 32, Status: true},
			{From: 10, To: 21, R: 0.03, X: 0.07, RateA: 32, Status: true},
			{From: 10, To: 22, R: 0.07, X: 0.15, RateA: 32, Status: true},
			{From: 21, To: 22, R: 0.01, X: 0.02, RateA: 32, Status: true},
			{From: 15, To: 23, R: 0.1, X: 0.2, RateA: 16, Status: true},
			{From: 22, To: 24, R: 0.12, X: 0.18, RateA: 16, Status: true},
			{From: 23, To: 24, R: 0.13, X: 0.27, RateA: 16, Status: true},
			{From: 24, To: 25, R: 0.19, X: 0.33, RateA: 16, Status: true},
			{From: 25, To: 26, R: 0.25, X: 0.38, RateA: 16, Status: true},
			{From: 25, To: 27, R: 0.11, X: 0.21, RateA: 16, Status: true},
			{From: 28, To: 27, X: 0.4, RateA: 65, Status: true},
			{From: 27, To: 29, R: 0.22, X: 0.42, RateA: 16, Status: true},
			{From: 27, To: 30, R: 0.32, X: 0.6, RateA: 16, Status: true},
			{From: 29, To: 30, R: 0.24, X: 0.45, RateA: 16, Status: true},
			{From: 8, To: 28, R: 0.06, X: 0.2, B: 0.02, RateA: 32, Status: true},
			{From: 6, To: 28, R: 0.02, X: 0.06, B: 0.02, RateA: 32, Status: true},
		},
	}
	mustNormalize(c)
	return c
}

func mustNormalize(c *Case) {
	if err := c.Normalize(); err != nil {
		panic(err)
	}
}

// The large embedded systems store their data as compact Matpower-style
// tables (one fixed-width row per element) instead of struct literals;
// caseFromTables expands them. Row layouts:
//
//	busRow:    ID, type, Pd, Qd, Gs, Bs, Vm, Va(deg)
//	genRow:    bus, Pg, Qg, Qmax, Qmin, Vg, Pmax, c2, c1, c0 (Pmin = 0)
//	branchRow: from, to, R, X, B, ratio (0 = plain line)
type (
	busRow    = [8]float64
	genRow    = [10]float64
	branchRow = [6]float64
)

// caseFromTables builds a normalized Case from the packed data tables.
// Every bus gets the uniform voltage band [vmin, vmax] and baseKV
// (buses listed in hv get 345 kV); every branch and generator is in
// service.
func caseFromTables(name string, baseKV, vmax, vmin float64, hv map[int]bool, buses []busRow, gens []genRow, branches []branchRow) *Case {
	c := &Case{Name: name, BaseMVA: 100}
	for _, r := range buses {
		id := int(r[0])
		kv := baseKV
		if hv[id] {
			kv = 345
		}
		c.Buses = append(c.Buses, Bus{
			ID: id, Type: BusType(int(r[1])),
			Pd: r[2], Qd: r[3], Gs: r[4], Bs: r[5],
			Vm: r[6], Va: r[7],
			BaseKV: kv, Vmax: vmax, Vmin: vmin,
		})
	}
	for _, r := range gens {
		c.Gens = append(c.Gens, Gen{
			Bus: int(r[0]), Pg: r[1], Qg: r[2],
			Qmax: r[3], Qmin: r[4], Vg: r[5],
			Pmax: r[6], Pmin: 0, Status: true,
			Cost: PolyCost{C2: r[7], C1: r[8], C0: r[9]},
		})
	}
	for _, r := range branches {
		c.Branches = append(c.Branches, Branch{
			From: int(r[0]), To: int(r[1]),
			R: r[2], X: r[3], B: r[4], Ratio: r[5],
			Status: true,
		})
	}
	mustNormalize(c)
	return c
}

// Rated-branch derivation constants — the single definition of the
// convention (see the package comment above). internal/casegen's
// certify step derives its synthetic ratings from these same values,
// so embedded and synthesized systems cannot drift apart.
const (
	// RatedHeadroom scales the base-case apparent flow into the branch
	// rating: base point feasible with ~2× margin, limits binding under
	// load growth.
	RatedHeadroom = 2.2
	// RatedFloorMVA is the minimum assigned rating, keeping lightly
	// loaded branches from getting degenerate limits.
	RatedFloorMVA = 15.0
)

// RateBranches assigns every in-service unrated branch a finite RateA of
// RatedHeadroom× the larger of its from-/to-side apparent-power flows at
// the case's stored operating point, floored at RatedFloorMVA. The case
// must be normalized. This is the single place the embedded systems
// derive flow limits from; branches with ratings in their source data
// are left untouched.
func RateBranches(c *Case) {
	y := MakeYbus(c)
	vm := make([]float64, len(c.Buses))
	va := make([]float64, len(c.Buses))
	for i, b := range c.Buses {
		vm[i] = b.Vm
		va[i] = Deg2Rad(b.Va)
	}
	sf, st := BranchFlows(y, Voltage(vm, va))
	li := 0
	for l := range c.Branches {
		if !c.Branches[l].Status {
			continue
		}
		if c.Branches[l].RateA == 0 {
			flow := math.Max(cmplxAbs(sf[li]), cmplxAbs(st[li])) * c.BaseMVA
			c.Branches[l].RateA = math.Max(RatedHeadroom*flow, RatedFloorMVA)
		}
		li++
	}
}

func cmplxAbs(x complex128) float64 { return math.Hypot(real(x), imag(x)) }
