// Package smartpgsim is a from-scratch Go reproduction of
// "Smart-PGSim: Using Neural Network to Accelerate AC-OPF Power Grid
// Simulation" (Dong, Xie, Kestor, Li — SC20).
//
// The implementation lives under internal/: the power-grid model and AC
// power-flow algebra (internal/grid), dense and sparse linear algebra
// (internal/la; internal/sparse, whose supernodal LDLᵀ factors every
// interior-point KKT system — DESIGN.md §7, §11), the MIPS
// primal–dual interior-point solver with its zero-allocation warm loop (internal/mips), the AC-OPF
// assembly (internal/opf), the neural-network framework and multitask
// model (internal/nn, internal/mtl), dataset generation
// (internal/dataset), the Smart-PGSim pipeline and experiment drivers
// (internal/core), the parallel batch-execution engine that fans every
// sweep out across the host's cores (internal/batch), the warm-start
// OPF serving subsystem (internal/serve), the topology-aware N-1
// contingency-screening engine (internal/scopf), the multi-period
// trajectory runner with warm-start chaining and ramp coupling
// (internal/horizon), and the online model lifecycle — served-traffic
// capture, drift-triggered retraining, the versioned model registry
// and canary-gated hot swaps (internal/lifecycle, DESIGN.md §13).
//
// Executables are under cmd/: pgsim (one-shot AC-OPF solves and load
// sweeps), traingen and train (the offline phase as artifacts),
// smartpgsim (the full pipeline and paper figures), sensitivity (Table
// I), scopf (N-1 contingency screening on the topology-aware engine),
// horizon (multi-period OPF trajectories with chain/predict/cold
// warm-start modes), results (renders BENCH_paper.json — the
// per-system warm-start speedups of the embedded fleet, up to the
// beyond-paper case1354 — plus the BENCH_kkt.json blocked-kernel
// section, the BENCH_trajectory.json crossover study and the
// BENCH_lifecycle.json closed-loop study into the RESULTS.md paper
// comparison), and pgsimd — the long-running warm-start OPF serving
// daemon with an HTTP/JSON API including the streaming /v1/trajectory
// endpoint and the online model lifecycle (capture, drift-triggered
// retraining, canary-gated hot swap; README.md documents the endpoints
// and flags). Runnable examples live under examples/, and bench_test.go
// in this directory regenerates every table and figure of the paper but
// Figure 9, whose 128-GPU cluster is not reproduced without one — see
// DESIGN.md and EXPERIMENTS.md.
package smartpgsim

// Version identifies the reproduction release.
const Version = "1.0.0"
