package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// metricDef names a metric and fixes its unit; BENCHMARK.json lists the
// same names (bench_test.go holds the two together).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"latency_ms_mid", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"iters_mean", "iterations"},
	{"warm_hit_share", "share"},
	{"solved_share", "share"},
	{"cost_match_digits", "digits"},
	{"alloc_kb_per_op", "KiB"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"serve.overhead_us_p50", "us"},
	{"serve.worker_busy_share", "share"},
	{"serve.batch_size_mean", "requests"},
	{"serve.shed_total", "count"},
	{"serve.latency_ms_p50_raw", "ms"},
	{"serve.latency_ms_p90", "ms"},
	{"serve.latency_ms_p99", "ms"},
	{"serve.req_bytes_mean", "bytes"},
	{"serve.resp_bytes_mean", "bytes"},
	{"core.solve_warm_us_p50", "us"},
	{"core.restart_share", "share"},
	{"core.cost_gap_max", "relative"},
	{"dataset.dropped_share", "share"},
	{"dataset.input_us_p50", "us"},
	{"mtl.predict_us_p50", "us"},
	{"mtl.params", "count"},
	{"mtl.weight_mb", "MiB"},
	{"opf.perturb_us_p50", "us"},
	{"opf.eval_us_per_iter", "us"},
	{"opf.eval_g_us_per_iter", "us"},
	{"opf.eval_h_us_per_iter", "us"},
	{"opf.hess_us_per_iter", "us"},
	{"opf.solve_cold_us_p50", "us"},
	{"opf.rebind_outage_us_p50", "us"},
	{"mips.setup_us_p50", "us"},
	{"mips.first_step_us_p50", "us"},
	{"mips.step_us_p50", "us"},
	{"mips.kkt_us_per_iter", "us"},
	{"sparse.analyses_total", "count"},
	{"sparse.refactors_total", "count"},
	{"sparse.fallbacks_total", "count"},
	{"sparse.orderings_total", "count"},
	{"sparse.reuse_share", "share"},
	{"sparse.analysis_us_per_class", "us"},
	{"scopf.scenarios_per_request", "count"},
	{"scopf.classes_per_request", "count"},
	{"scopf.projected_share", "share"},
	{"scopf.warm_hit_share", "share"},
	{"scopf.error_share", "share"},
	{"scopf.error_iters_share", "share"},
	{"scopf.engine_us_p50", "us"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms_total", "ms"},
	{"go.mallocs_per_op", "count"},
	{"trace.overhead_share", "share"},
	{"trace.replay_mismatch_total", "count"},
}

// metric is one reported number. N is the sample count behind it (0: the
// workload does not exercise that layer) and Spread, for a timing, how
// far the run's two halves disagree about it, relative to the value.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Spread float64 `json:"spread,omitempty"`
}

// metricSet collects the metrics of one pass, every name of defs present.
type metricSet map[string]metric

func newMetricSet(defs []metricDef) metricSet {
	m := metricSet{}
	for _, d := range defs {
		m[d.name] = metric{Unit: d.unit}
	}
	return m
}

func (m metricSet) set(name string, value float64, n int) {
	e, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not declared")
	}
	e.Value, e.N = value, n
	m[name] = e
}

// setHalves reports a timing with the disagreement of the run's two
// halves, relative to the value, as its spread.
func (m metricSet) setHalves(name string, value, even, odd float64, n int) {
	m.set(name, value, n)
	e := m[name]
	e.Spread = ratio(math.Abs(even-odd), value)
	m[name] = e
}

// A run boots the system at least setupRepeats times and goes on, up to
// setupMaxRepeats, until the boots add up to setupTime. setup_s is the
// fastest of them, the quiet boot, as a request's quiet time is its
// fastest repeat: a boot allocates all its memory afresh, which the
// machine's slow spells hit harder than they hit a solve, and the median
// of five boots of 20 ms (case30, case118 without a model) moved by half
// between runs of the same code.
const (
	setupRepeats    = 5
	setupMaxRepeats = 31
	setupTime       = time.Second
)

// outcome is one run of one workload: the pass's metrics and the op
// counts behind the result line.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	problems  []string // contract violations seen; non-empty means not correct
}

// runWorkload sets the workload up, gates it on the check pass, and
// measures for about the given time: the timed run (tracing off, the
// end-to-end metrics) or the traced pass (the per-layer metrics).
//
// Set-up time is the fastest boot. Drawing the pool and the check pass
// are the benchmark's own work, not the system's, and are left out of
// it: each is one long stretch of the very solves the timed run
// measures, at the mercy of the machine's slow phases.
func runWorkload(w workload, seed int64, seconds int, traced bool, env envelope) (*outcome, error) {
	sys, err := core.LoadSystem(w.system)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	pool, err := newPool(sys, seed, w.pool)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	snapshot, err := ensureSnapshot(w)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	bodies, err := solveBodies(w, pool)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	var r *rig
	var boots []float64
	var booting time.Duration
	for k := 0; k < setupRepeats || (booting < setupTime && k < setupMaxRepeats); k++ {
		if r != nil {
			r.close()
			r = nil
		}
		// A boot starts from the live heap, not from the garbage of the
		// step before it: peak memory then does not depend on when the
		// collector happened to run.
		runtime.GC()
		t0 := time.Now()
		if r, err = boot(w, snapshot, pool, bodies); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		booting += d
		boots = append(boots, d.Seconds())
	}
	defer r.close()
	check, err := r.checkPass()
	if err != nil {
		return nil, err
	}
	runtime.GC() // the timed run does not start on the set-up's garbage

	total := time.Duration(seconds) * time.Second
	if traced {
		return r.tracedPass(total, seed, check, env)
	}
	return r.timedRun(total, check, boots), nil
}

func (r *rig) timedRun(total time.Duration, check checkStats, boots []float64) *outcome {
	out := &outcome{metrics: newMetricSet(endToEnd), attempted: check.ops}
	seg := r.drive(total, nil)
	attempted, failed, solved := seg.ops()
	out.attempted += attempted
	out.failed = failed
	out.note(seg)
	done := attempted - failed

	// The two halves of the run (even and odd rotations) each give the
	// quiet timing on their own; how far they disagree is the noise left
	// in the number.
	all := quietOf(seg, r.w.rotation, 0, 1)
	even, odd := quietOf(seg, r.w.rotation, 0, 2), quietOf(seg, r.w.rotation, 1, 2)
	m := out.metrics
	m.setHalves("latency_ms_mid", all.latencyMS, even.latencyMS, odd.latencyMS, len(seg.obs))
	m.setHalves("throughput_ops_s", all.rate, even.rate, odd.rate, done)
	m.set("iters_mean", ratio(check.iterSum, float64(check.iterN)), check.iterN)
	m.set("warm_hit_share", ratio(float64(check.firstTry), float64(check.ops)), check.ops)
	m.set("solved_share", ratio(float64(check.solved+solved), float64(out.attempted)), out.attempted)
	m.set("cost_match_digits", matchDigits(median(check.gaps)), len(check.gaps))
	m.set("alloc_kb_per_op", all.allocKB, done)
	m.set("rss_peak_mb", rssPeakMB(), 1)
	m.set("setup_s", slices.Min(boots), len(boots))
	return out
}

// note keeps the first few contract violations of a segment.
func (o *outcome) note(seg segment) {
	for _, ob := range seg.obs {
		if ob.err != nil && len(o.problems) < 5 {
			o.problems = append(o.problems, fmt.Sprintf("request %d: %v", ob.idx, ob.err))
		}
	}
}

// matchDigits turns a relative cost gap into decimal digits of
// agreement with the reference, capped at float64 precision, so that a
// bound relative to the parent's value means something (a gap of 3e-10
// against 4e-10 is noise, 9.5 digits against 6 is a loss of optimality).
func matchDigits(gap float64) float64 {
	return math.Min(16, -math.Log10(math.Max(gap, 1e-16)))
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// batchSizes scrapes the sum and count of pgsimd_batch_size.
func (r *rig) batchSizes() (sum, count float64) {
	resp, err := http.Get(r.ts.URL + "/metrics")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "pgsimd_batch_size_sum "); ok {
			sum, _ = strconv.ParseFloat(v, 64)
		}
		if v, ok := strings.CutPrefix(sc.Text(), "pgsimd_batch_size_count "); ok {
			count, _ = strconv.ParseFloat(v, 64)
		}
	}
	return sum, count
}

// tracedPass measures the layers: a quarter of the time under plain
// load (the tracing-off reference), a quarter under the same load with
// spans on, half replaying the same inputs directly into each layer.
func (r *rig) tracedPass(total time.Duration, seed int64, check checkStats, env envelope) (*outcome, error) {
	out := &outcome{metrics: newMetricSet(perLayer), attempted: check.ops}
	plain := r.drive(total/4, nil)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	kkt0 := r.sys.OPF.KKTStats()
	bsum0, bcount0 := r.batchSizes()
	tr := newTracer()
	load := r.drive(total/4, tr)
	bsum1, bcount1 := r.batchSizes()
	kkt := subKKT(r.sys.OPF.KKTStats(), kkt0)
	runtime.ReadMemStats(&ms1)

	rp, err := r.replayFor(total/2, tr)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	addKKT(&kkt, rp.kkt)
	for _, seg := range []segment{plain, load} {
		a, f, _ := seg.ops()
		out.attempted += a
		out.failed += f
		out.note(seg)
	}
	if err := writeTrace(r.w.name, seed, env, tr.spans); err != nil {
		return nil, err
	}

	m := out.metrics
	tab := tabulate(tr.spans)
	p50 := func(name, span string) { m.set(name, median(tab.dur[span]), len(tab.dur[span])) }
	perIter := func(name string, us float64) { m.set(name, ratio(us, float64(rp.iterations)), rp.iterations) }

	attempted, failed, _ := load.ops()
	done := attempted - failed
	var execUS, reqBytes, respBytes, shed float64
	for _, seg := range []segment{plain, load} {
		for _, o := range seg.obs {
			if o.shed {
				shed++
			}
		}
	}
	for _, o := range load.obs {
		execUS += float64(o.exec.Microseconds())
		reqBytes += float64(o.reqBytes)
		respBytes += float64(o.respBytes)
	}
	n := len(load.obs)
	lat := load.latenciesMS()
	m.set("serve.overhead_us_p50", median(tab.self["serve.roundtrip"]), n)
	m.set("serve.worker_busy_share", execUS/(float64(load.wall.Microseconds())*float64(runtime.GOMAXPROCS(0))), n)
	m.set("serve.batch_size_mean", ratio(bsum1-bsum0, bcount1-bcount0), int(bcount1-bcount0))
	m.set("serve.shed_total", shed, len(plain.obs)+n)
	m.set("serve.latency_ms_p50_raw", median(lat), n)
	m.set("serve.latency_ms_p90", percentile(lat, 90), n)
	m.set("serve.latency_ms_p99", percentile(lat, 99), n)
	m.set("serve.req_bytes_mean", ratio(reqBytes, float64(n)), n)
	m.set("serve.resp_bytes_mean", ratio(respBytes, float64(n)), n)

	p50("core.solve_warm_us_p50", "core.solve_warm")
	m.set("core.restart_share", ratio(float64(check.restarts), float64(check.ops)), check.ops)
	m.set("core.cost_gap_max", percentile(check.gaps, 100), len(check.gaps))
	m.set("dataset.dropped_share", ratio(float64(r.pool.dropped), float64(r.pool.drawn)), r.pool.drawn)
	p50("dataset.input_us_p50", "dataset.input")
	p50("mtl.predict_us_p50", "mtl.predict")
	if r.model != nil {
		params := 0
		for _, p := range r.model.Params() {
			params += len(p.Val)
		}
		m.set("mtl.params", float64(params), 1)
		m.set("mtl.weight_mb", float64(4*params)/(1<<20), 1) // computed: the float32 serving copy
	}

	p50("opf.perturb_us_p50", "opf.perturb")
	evalG, evalH, hess := sum(tab.dur["opf.eval_g"]), sum(tab.dur["opf.eval_h"]), sum(tab.dur["opf.hess"])
	perIter("opf.eval_us_per_iter", sum(tab.dur["opf.eval_f"])+evalG+evalH+hess)
	perIter("opf.eval_g_us_per_iter", evalG)
	perIter("opf.eval_h_us_per_iter", evalH)
	perIter("opf.hess_us_per_iter", hess)
	p50("opf.solve_cold_us_p50", "opf.solve_cold")
	p50("opf.rebind_outage_us_p50", "opf.rebind_outage")

	p50("mips.setup_us_p50", "mips.setup")
	p50("mips.first_step_us_p50", "mips.first_step")
	p50("mips.step_us_p50", "mips.step")
	// A steady-state step minus the evaluations made under it: assemble,
	// refactor, triangular solves and update, mips and sparse together.
	m.set("mips.kkt_us_per_iter", mean(tab.self["mips.step"]), len(tab.self["mips.step"]))

	m.set("sparse.analyses_total", float64(kkt.Analyses), n+rp.classes)
	m.set("sparse.refactors_total", float64(kkt.Refactors), n+rp.classes)
	m.set("sparse.fallbacks_total", float64(kkt.Fallbacks), n+rp.classes)
	m.set("sparse.orderings_total", float64(kkt.Orderings), n+rp.classes)
	m.set("sparse.reuse_share", ratio(float64(kkt.Refactors), float64(kkt.Refactors+kkt.Analyses)), n+rp.classes)
	if rp.classes > 0 {
		// Computed: what the first solve on a fresh class costs beyond the repeat.
		m.set("sparse.analysis_us_per_class", (sum(tab.dur["opf.solve_first"])-sum(tab.dur["opf.solve_repeat"]))/float64(rp.classes), rp.classes)
	}

	if r.w.screen {
		reqs := float64(r.checkRequests())
		scen := float64(check.ops)
		// Computed: a scenario ending in err ran its cold solve to the
		// iteration limit; the failed warm attempt before it is not
		// visible from outside.
		burnt := float64(check.errors * solverMaxIter)
		m.set("scopf.scenarios_per_request", scen/reqs, int(reqs))
		m.set("scopf.classes_per_request", float64(check.classes)/reqs, int(reqs))
		m.set("scopf.projected_share", float64(check.projected)/scen, check.ops)
		m.set("scopf.warm_hit_share", float64(check.firstTry)/scen, check.ops)
		m.set("scopf.error_share", float64(check.errors)/scen, check.ops)
		m.set("scopf.error_iters_share", burnt/(burnt+check.iterSum), check.ops)
		var engine []float64
		for _, o := range load.obs {
			engine = append(engine, float64(o.exec.Microseconds()))
		}
		m.set("scopf.engine_us_p50", median(engine), n)
	}

	m.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), n)
	m.set("go.gc_pause_ms_total", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, n)
	m.set("go.mallocs_per_op", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(done)), done)
	m.set("trace.overhead_share", 1-ratio(quietOf(load, r.w.rotation, 0, 1).rate, quietOf(plain, r.w.rotation, 0, 1).rate), len(plain.obs)+n)
	m.set("trace.replay_mismatch_total", float64(rp.mismatches), rp.inputs+rp.classes)
	if rp.mismatches > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d replays took other iteration counts than the served answers", rp.mismatches, rp.inputs+rp.classes))
	}
	return out, nil
}
