package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/scopf"
	"repro/internal/sparse"
)

// latencyBuckets are the histogram upper bounds for solve latency in
// seconds (log-spaced around the sub-second solves the test systems
// take; +Inf is implicit).
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// batchBuckets are the histogram upper bounds for micro-batch sizes.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// screenLatencyBuckets are the histogram upper bounds for screening
// sweeps, which run thousands of solves: seconds to minutes, not the
// millisecond scale of single solves.
var screenLatencyBuckets = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// histogram is a fixed-bucket Prometheus-style histogram. Callers hold
// the metrics mutex.
type histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is +Inf
	sum    float64
	total  int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.total++
}

// render writes the histogram in Prometheus text format with cumulative
// bucket counts. labels is the rendered label set without the le pair
// ("" or `path="warm"` style).
func (h *histogram) render(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	suffix := ""
	if l := strings.TrimSuffix(labels, ","); l != "" {
		suffix = "{" + l + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.total)
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// counter is one labelled Prometheus counter family: samples keyed by
// their label values, rendered in sorted order so /metrics is
// deterministic. A family without label names is a single sample that
// renders even at zero. Callers hold the metrics mutex.
type counter struct {
	name, help string
	labels     []string            // at most two
	vals       map[[2]string]int64 // keyed by label values: counting on the request path allocates nothing
}

func newCounter(name, help string, labels ...string) *counter {
	return &counter{name: name, help: help, labels: labels, vals: make(map[[2]string]int64)}
}

// add bumps the sample with the given label values (one per label name)
// by n; adding 0 still creates the sample, so it renders.
func (c *counter) add(n int64, values ...string) {
	var k [2]string
	copy(k[:], values)
	c.vals[k] += n
}

func (c *counter) render(w io.Writer) {
	header(w, c.name, "counter", c.help)
	if len(c.labels) == 0 {
		fmt.Fprintf(w, "%s %d\n", c.name, c.vals[[2]string{}])
		return
	}
	// Sorted by the joined label values ("case9|warm"), the order the
	// page has always had.
	keys := make([][2]string, 0, len(c.vals))
	for k := range c.vals {
		keys = append(keys, k)
	}
	joined := func(k [2]string) string { return strings.Join(k[:len(c.labels)], "|") }
	sort.Slice(keys, func(i, j int) bool { return joined(keys[i]) < joined(keys[j]) })
	for _, k := range keys {
		pairs := make([]string, len(c.labels))
		for i, name := range c.labels {
			pairs[i] = fmt.Sprintf("%s=%q", name, k[i])
		}
		fmt.Fprintf(w, "%s{%s} %d\n", c.name, strings.Join(pairs, ","), c.vals[k])
	}
}

// metrics aggregates the serving counters exposed at /metrics: request
// and solve counts, the warm-start hit rate (warm_converged_total /
// warm_attempts_total — the paper's SR, measured on live traffic),
// iteration totals and the latency/batch-size histograms.
type metrics struct {
	mu sync.Mutex

	requests, solves, iterations              *counter
	warmAttempts, warmConverged, coldRestarts *counter
	kktCorrections                            *counter

	// Screening counters, per system: sweeps completed, scenarios
	// screened, feasible/warm/projected/error outcomes, and topology
	// classes prepared (scenarios/classes is the prepare-reuse factor;
	// warm/scenarios the screening warm-hit rate).
	screens, screenScenarios, screenFeasible, screenWarm, screenProjected *counter
	screenIslanded, screenErrors, screenStalled                           *counter
	screenClasses, screenAnalyses                                         *counter
	screenLatency                                                         *histogram

	// Trajectory counters: streams completed, steps and warm-accepted
	// steps per system and mode, mid-stream client disconnects per
	// system, and the per-step latency histogram.
	trajectories, trajectorySteps, trajectoryWarm, trajectoryDisconnects *counter
	trajectoryStepLatency                                                *histogram

	// Lifecycle event counters, per system: hot swaps applied to the
	// serving model version (SwapModel, SwapPredictors or a canary
	// promotion), drift-detector firings, canary-scored solves per arm
	// and canary window outcomes. Gauge-like lifecycle state (captured
	// records, retrains, …) is snapshotted from the attached managers at
	// render time instead.
	lcSwaps, lcDrift, lcCanarySolves, lcDecisions *counter

	latency map[string]*histogram // per path
	batches *histogram
	started time.Time
}

func newMetrics() *metrics {
	return &metrics{
		requests:      newCounter("pgsimd_http_requests_total", "API responses by endpoint and status code.", "endpoint", "code"),
		solves:        newCounter("pgsimd_solves_total", "Completed solves by system and pipeline path.", "system", "path"),
		iterations:    newCounter("pgsimd_solve_iterations_total", "Interior-point iterations of accepted solves.", "system", "path"),
		warmAttempts:  newCounter("pgsimd_warm_attempts_total", "Warm-start attempts (requests served with a model)."),
		warmConverged: newCounter("pgsimd_warm_converged_total", "Warm starts that converged without restart (hit rate numerator)."),
		coldRestarts:  newCounter("pgsimd_cold_restarts_total", "Cold fallbacks after a non-convergent warm start."),
		kktCorrections: newCounter("pgsimd_kkt_inertia_corrections_total",
			"KKT refactorizations of /v1/solve and /v1/screen solves (warm attempts and their restarts) made to correct the factor's inertia while the barrier is large.", "system"),

		screens:         newCounter("pgsimd_screen_sweeps_total", "Completed /v1/screen contingency sweeps per system.", "system"),
		screenScenarios: newCounter("pgsimd_screen_scenarios_total", "Scenarios screened per system.", "system"),
		screenFeasible:  newCounter("pgsimd_screen_feasible_total", "Scenarios that admitted a secure dispatch.", "system"),
		screenWarm:      newCounter("pgsimd_screen_warm_total", "Scenarios accepted on a model warm start (hit rate = warm/scenarios).", "system"),
		screenProjected: newCounter("pgsimd_screen_projected_total", "Warm starts accepted after the prediction was fitted to an outage class (a rated branch or a unit out).", "system"),
		screenIslanded:  newCounter("pgsimd_screen_islanded_total", "Scenarios classified as islanding outages (no solver invoked).", "system"),
		screenErrors:    newCounter("pgsimd_screen_errors_total", "Scenarios whose solve or derivation errored.", "system"),
		screenStalled:   newCounter("pgsimd_screen_stalled_total", "Errored scenarios ended early because primal feasibility stalled (mips.ErrStalled).", "system"),
		screenClasses:   newCounter("pgsimd_screen_classes_total", "Topology classes prepared (prepare reuse = scenarios/classes).", "system"),
		screenAnalyses:  newCounter("pgsimd_screen_kkt_analyses_total", "KKT symbolic analyses made by the outage classes of screening sweeps: every outage class factors on the intact system's analysis, which pgsimd_kkt_symbolic_analyses_total counts, so it stays zero while outages keep the intact KKT pattern.", "system"),
		screenLatency:   newHistogram(screenLatencyBuckets),

		trajectories:          newCounter("pgsimd_trajectory_streams_total", "Completed /v1/trajectory streams by system and warm-start mode.", "system", "mode"),
		trajectorySteps:       newCounter("pgsimd_trajectory_steps_total", "Trajectory steps streamed by system and warm-start mode.", "system", "mode"),
		trajectoryWarm:        newCounter("pgsimd_trajectory_warm_steps_total", "Trajectory steps accepted on their chained or predicted start.", "system", "mode"),
		trajectoryDisconnects: newCounter("pgsimd_trajectory_disconnects_total", "Streams aborted mid-trajectory by the client (stream slot released).", "system"),
		trajectoryStepLatency: newHistogram(latencyBuckets),

		lcSwaps:        newCounter("pgsimd_lifecycle_swaps_total", "Hot swaps of a system's serving model (direct swaps and canary promotions).", "system"),
		lcDrift:        newCounter("pgsimd_lifecycle_drift_events_total", "Drift-detector firings on live warm-start telemetry.", "system"),
		lcCanarySolves: newCounter("pgsimd_lifecycle_canary_solves_total", "Canary-scored warm solves by arm.", "system", "arm"),
		lcDecisions:    newCounter("pgsimd_lifecycle_canary_decisions_total", "Completed canary windows by outcome.", "system", "decision"),

		latency: make(map[string]*histogram),
		batches: newHistogram(batchBuckets),
		started: time.Now(),
	}
}

// inc bumps one counter sample by n.
func (m *metrics) inc(c *counter, n int64, values ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c.add(n, values...)
}

// recordScreen folds one completed screening sweep into the counters.
func (m *metrics) recordScreen(system string, sum scopf.Summary, rep *scopf.Report, latency time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.screens.add(1, system)
	m.screenScenarios.add(int64(sum.Total), system)
	m.screenFeasible.add(int64(sum.Feasible), system)
	m.screenWarm.add(int64(sum.WarmConverged), system)
	m.screenProjected.add(int64(sum.Projected), system)
	m.screenIslanded.add(int64(sum.Islanded), system)
	m.screenErrors.add(int64(sum.Errors), system)
	m.screenStalled.add(int64(sum.Stalled), system)
	m.screenClasses.add(int64(len(rep.Classes)), system)
	m.screenAnalyses.add(int64(rep.KKT.Analyses), system)
	corrections := 0
	for _, o := range rep.Outcomes {
		corrections += o.InertiaCorrections
	}
	m.kktCorrections.add(int64(corrections), system)
	m.screenLatency.observe(latency.Seconds())
}

// recordTrajectoryStep folds one streamed trajectory step into the
// counters as it is emitted.
func (m *metrics) recordTrajectoryStep(system, mode string, warm bool, latency time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trajectorySteps.add(1, system, mode)
	if warm {
		m.trajectoryWarm.add(1, system, mode)
	}
	m.trajectoryStepLatency.observe(latency.Seconds())
}

func (m *metrics) recordSolve(resp *SolveResponse, corrections int, latency time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solves.add(1, resp.System, resp.Path)
	m.iterations.add(int64(resp.Iterations), resp.System, resp.Path)
	m.kktCorrections.add(int64(corrections), resp.System)
	if resp.Path != "cold" {
		m.warmAttempts.add(1)
		if resp.WarmConverged {
			m.warmConverged.add(1)
		}
		if resp.ColdRestarted {
			m.coldRestarts.add(1)
		}
	}
	h := m.latency[resp.Path]
	if h == nil {
		h = newHistogram(latencyBuckets)
		m.latency[resp.Path] = h
	}
	h.observe(latency.Seconds())
}

func (m *metrics) observeBatchSize(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches.observe(float64(n))
}

// kktStat is one grid's symbolic-cache snapshot for /metrics.
type kktStat struct {
	system string
	stats  sparse.CacheStats
}

// header writes a metric family's HELP and TYPE lines.
func header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// render writes every metric in Prometheus text exposition format, with
// deterministic (sorted) label ordering.
func (m *metrics) render(w io.Writer, queueDepth int, kkt []kktStat, lcs []lcStat) {
	m.mu.Lock()
	defer m.mu.Unlock()

	for _, c := range []*counter{m.requests, m.solves, m.iterations, m.warmAttempts, m.warmConverged, m.coldRestarts} {
		c.render(w)
	}
	header(w, "pgsimd_solve_latency_seconds", "histogram", "End-to-end solve latency by pipeline path.")
	paths := make([]string, 0, len(m.latency))
	for p := range m.latency {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		m.latency[path].render(w, "pgsimd_solve_latency_seconds", fmt.Sprintf("path=%q,", path))
	}
	header(w, "pgsimd_batch_size", "histogram", "Requests coalesced per micro-batch.")
	m.batches.render(w, "pgsimd_batch_size", "")

	for _, c := range []*counter{
		m.screens, m.screenScenarios, m.screenFeasible, m.screenWarm, m.screenProjected,
		m.screenIslanded, m.screenErrors, m.screenStalled, m.screenClasses, m.screenAnalyses,
	} {
		c.render(w)
	}
	header(w, "pgsimd_screen_latency_seconds", "histogram", "End-to-end latency of screening sweeps.")
	m.screenLatency.render(w, "pgsimd_screen_latency_seconds", "")

	for _, c := range []*counter{m.trajectories, m.trajectorySteps, m.trajectoryWarm, m.trajectoryDisconnects} {
		c.render(w)
	}
	header(w, "pgsimd_trajectory_step_latency_seconds", "histogram", "Per-step wall-clock latency of streamed trajectory steps.")
	m.trajectoryStepLatency.render(w, "pgsimd_trajectory_step_latency_seconds", "")

	// Snapshot families: one sample per system in registration order,
	// read from the grids' caches and the lifecycle managers at render
	// time rather than counted here.
	for _, f := range []struct {
		name, help string
		pick       func(sparse.CacheStats) uint64
	}{
		{"pgsimd_kkt_symbolic_analyses_total", "KKT symbolic analyses (ordering, elimination tree, supernodes) per grid.",
			func(s sparse.CacheStats) uint64 { return s.Analyses }},
		{"pgsimd_kkt_numeric_refactors_total", "Numeric KKT factorizations on the cached symbolic analysis per grid.",
			func(s sparse.CacheStats) uint64 { return s.Refactors }},
		{"pgsimd_kkt_refactor_fallbacks_total", "KKT factorizations rejected as numerically singular (a collapsed column) per grid: one ends its solve with a numerical failure, one inside an inertia correction counts as wrong inertia.",
			func(s sparse.CacheStats) uint64 { return s.Fallbacks }},
	} {
		header(w, f.name, "counter", f.help)
		for _, k := range kkt {
			fmt.Fprintf(w, "%s{system=%q} %d\n", f.name, k.system, f.pick(k.stats))
		}
	}
	m.kktCorrections.render(w)

	for _, c := range []*counter{m.lcSwaps, m.lcDrift, m.lcCanarySolves, m.lcDecisions} {
		c.render(w)
	}
	for _, f := range []struct {
		name, typ, help string
		pick            func(lifecycle.Stats) int64
	}{
		{"pgsimd_lifecycle_state", "gauge", "Lifecycle state per system (0=capturing, 1=retraining, 2=canary).",
			func(s lifecycle.Stats) int64 { return int64(s.State) }},
		{"pgsimd_lifecycle_captured_total", "counter", "Served solves recorded into the capture buffer.",
			func(s lifecycle.Stats) int64 { return s.Captured }},
		{"pgsimd_lifecycle_capture_retained", "gauge", "Records currently retained in the bounded capture buffer.",
			func(s lifecycle.Stats) int64 { return int64(s.Retained) }},
		{"pgsimd_lifecycle_capture_flushes_total", "counter", "Completed fsync'd capture flushes to disk.",
			func(s lifecycle.Stats) int64 { return s.Flushes }},
		{"pgsimd_lifecycle_retrains_total", "counter", "Completed drift-triggered retrains.",
			func(s lifecycle.Stats) int64 { return s.Retrains }},
		{"pgsimd_lifecycle_promotions_total", "counter", "Canary candidates promoted to incumbent.",
			func(s lifecycle.Stats) int64 { return s.Promotions }},
		{"pgsimd_lifecycle_rollbacks_total", "counter", "Canary candidates rejected after a measured regression.",
			func(s lifecycle.Stats) int64 { return s.Rollbacks }},
	} {
		if len(lcs) == 0 {
			break // no lifecycle attached anywhere: the families are absent
		}
		header(w, f.name, f.typ, f.help)
		for _, l := range lcs {
			fmt.Fprintf(w, "%s{system=%q} %d\n", f.name, l.system, f.pick(l.stats))
		}
	}

	header(w, "pgsimd_queue_depth", "gauge", "Requests waiting for the dispatcher.")
	fmt.Fprintf(w, "pgsimd_queue_depth %d\n", queueDepth)
	header(w, "pgsimd_uptime_seconds", "gauge", "Seconds since the server started.")
	fmt.Fprintf(w, "pgsimd_uptime_seconds %g\n", time.Since(m.started).Seconds())
}
