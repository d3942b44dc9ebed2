// Package core is the Smart-PGSim framework: the offline phase (dataset
// generation, sensitivity study, multitask-model training with physics
// constraints) and the online phase (MTL warm-start prediction feeding
// the MIPS interior-point solver, with cold restart as the 100 %-success
// fallback). It also hosts the experiment drivers that regenerate every
// table and figure of the paper — see DESIGN.md for the index.
//
// The heavy sweeps (Evaluate, SensitivityStudy, PredictionAccuracy,
// ConvergenceStudy) fan their per-problem solves out across the
// internal/batch worker pool. Each perturbed problem instance is derived
// from the system's prepared OPF via Rebind, sharing the assembled Ybus
// and constraint structure across all load perturbations, and every
// worker predicts with the one model ((*mtl.Model).Predict is safe for
// concurrent use). All aggregates except wall-clock timings are
// bit-identical to a sequential run under a fixed seed.
//
// The online phase is also exposed as a long-running service: the
// internal/serve package (behind cmd/pgsimd) drives System.SolveWarm
// per HTTP request, with opf.Predictor as the warm-start seam and
// InstanceInput reproducing the offline pipeline's model inputs bit for
// bit.
package core
