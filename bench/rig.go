package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mtl"
	"repro/internal/scopf"
	"repro/internal/serve"
)

// workload is one served traffic shape. draws and epochs are the
// paperBenchProfile sizes of bench_test.go (0 = no model is trained);
// the training seeds are program configuration and do not follow -seed.
//
// pool is how many distinct inputs the check pass sends; rotation is how
// many of them (see rotationOrder) the timed load cycles through. The two
// pull against each other: more inputs make the numbers hold still from
// seed to seed, more repeats of each input take the machine's noise out
// (see quiet). A case30 solve is cheap and its iteration count varies
// most from draw to draw (one in thirty warm starts restarts cold), so
// it gets many inputs. A case300 pool is dear (its reference optima are
// cold solves) and stays at 48, all of them in the rotation: with 24 of
// them the latency spread over ten seeds was 8 to 20 %, with all 48 it
// is 4 to 6 % at some twenty repeats each.
type workload struct {
	name, system   string
	draws, epochs  int
	pool, rotation int
	cold, screen   bool
}

var workloads = []workload{
	{name: "serve_warm_small", system: "case30", draws: 64, epochs: 200, pool: 480, rotation: 240},
	{name: "serve_warm_large", system: "case300", draws: 12, epochs: 60, pool: 48, rotation: 48},
	{name: "serve_cold_mid", system: "case118", pool: 96, rotation: 96, cold: true},
	// A rotation of 15 screening requests is 60 of the 177 outages and 15
	// intact solves: every third window of the check pass.
	{name: "screen_n1_mid", system: "case118", draws: 24, epochs: 100, pool: 48, rotation: 15, screen: true},
}

// clients is the closed loop's width: one simulation runner that sends
// its next problem when the last answer is in. The run is pinned to one
// processor (see main), so a second client would only queue behind the
// first; the box's second core comes and goes with its neighbours,
// which no run length averages out.
const clients = 1

const (
	trainModelSeed  = 17
	screenPerWindow = 4    // contingencies per screening request, plus the intact topology
	costGapLimit    = 1e-5 // served cost against the cold reference optimum: ten times the solver's own cost tolerance
	solverMaxIter   = 150  // mips default: what a scenario ending in err has burnt at least
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// snapshotPath is where the build keeps a workload's trained model,
// keyed by the binary: a snapshot trained by other code is never served.
func snapshotPath(w workload) (string, error) {
	id, err := binaryID()
	if err != nil {
		return "", err
	}
	return filepath.Join(buildDir, "models", fmt.Sprintf("%s-%s-%dx%d.model", id, w.system, w.draws, w.epochs)), nil
}

// trainSnapshot runs the offline phase of a workload at the bench
// profile of bench_test.go, so its numbers tie to BENCH_paper.json, and
// leaves the model snapshot in the build directory.
func trainSnapshot(w workload) error {
	sys, err := core.LoadSystem(w.system)
	if err != nil {
		return err
	}
	set, err := sys.GenerateData(w.draws, trainSeed(sys))
	if err != nil {
		return err
	}
	tr, _ := set.Split(0.75)
	m, err := sys.TrainModel(mtl.VariantSmartPGSim, tr, w.epochs, trainModelSeed, nil)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	path, err := snapshotPath(w)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path+".tmp", buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	// Snapshots of earlier builds are never read again.
	old, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.model"))
	id, _, _ := strings.Cut(filepath.Base(path), "-")
	for _, f := range old {
		if !strings.HasPrefix(filepath.Base(f), id+"-") {
			os.Remove(f)
		}
	}
	return nil
}

// ensureSnapshot returns the file the workload's warm-start model is
// served from ("" without a model), the way the daemon gets one
// (pgsimd -model). The first run of a build has a child process train
// it, so that no measuring process carries the offline phase's memory
// and every run serves the same bytes; offline training throughput is
// not what this benchmark covers.
func ensureSnapshot(w workload) (string, error) {
	if w.epochs == 0 {
		return "", nil
	}
	path, err := snapshotPath(w)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "-train", w.name)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("training %s: %w", w.name, err)
	}
	return path, nil
}

// binaryID identifies the running build.
func binaryID() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(self)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

// rig is a booted workload: the shipped serving configuration
// (cmd/pgsimd defaults) behind a loopback listener, and the request
// pool that drives it.
type rig struct {
	w      workload
	sys    *core.System
	model  *mtl.Model
	pool   *pool
	cons   []int // screen: the connected N-1 set
	srv    *serve.Server
	ts     *httptest.Server
	cl     *http.Client // the one closed-loop client: a single keep-alive connection
	bodies [][]byte     // solve: one encoded request per pool input

	served map[int]int // pool input → iterations served in the check pass
	work   []int       // solve: check-pass request → interior-point iterations it cost
	order  []int       // rotation slot → request index, set by the check pass
}

// solveBodies encodes one solve request per pool input; nil for the
// screen workload, whose requests pair a draw with an outage window.
func solveBodies(w workload, p *pool) ([][]byte, error) {
	if w.screen {
		return nil, nil
	}
	bodies := make([][]byte, len(p.factors))
	for i, f := range p.factors {
		b, err := json.Marshal(serve.SolveRequest{System: w.system, Factors: f, Cold: w.cold})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// boot is what a daemon does from process start until its first answer
// is out: load the system and the model snapshot, start the server, and
// serve one request (which pays the lazy part: the first symbolic
// analysis, the first arena).
func boot(w workload, snapshot string, p *pool, bodies [][]byte) (*rig, error) {
	sys, err := core.LoadSystem(w.system)
	if err != nil {
		return nil, err
	}
	var m *mtl.Model
	if snapshot != "" {
		f, err := os.Open(snapshot)
		if err != nil {
			return nil, err
		}
		m, err = sys.LoadModel(mtl.VariantSmartPGSim, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	r := &rig{w: w, sys: sys, model: m, pool: p, bodies: bodies, served: map[int]int{}}
	if w.screen {
		r.cons = scopf.Contingencies(sys.Case)
	}
	r.srv = serve.New(serve.Config{})
	r.srv.AddSystem(sys, m)
	r.ts = httptest.NewServer(r.srv.Handler())
	r.cl = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	if err := r.first(); err != nil {
		r.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return r, nil
}

// first sends the request a boot ends with: the nominal load, every
// factor 1, under every seed. Set-up time is then the system's and not
// the first draw's: on two seeds in ten the first case30 draw is one
// whose warm start fails and restarts cold, and the boot took half as
// long again.
func (r *rig) first() error {
	nominal := make([]float64, r.sys.Case.NB())
	for i := range nominal {
		nominal[i] = 1
	}
	path, req := "/v1/solve", any(serve.SolveRequest{System: r.w.system, Factors: nominal, Cold: r.w.cold})
	if r.w.screen {
		path, req = "/v1/screen", serve.ScreenRequest{
			System: r.w.system, Draws: [][]float64{nominal},
			Contingencies: contingencyWindow(r.cons, 0, screenPerWindow),
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	status, raw, err := r.post(path, body)
	if err != nil {
		return err
	}
	var answer struct {
		Converged bool `json:"converged"`
		Scenarios int  `json:"scenarios"`
	}
	if err := json.Unmarshal(raw, &answer); err != nil {
		return err
	}
	if status != http.StatusOK || (!answer.Converged && answer.Scenarios != screenPerWindow+1) {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	return nil
}

// post sends one request on the client's connection and reads the whole
// answer.
func (r *rig) post(path string, body []byte) (status int, raw []byte, err error) {
	resp, err := r.cl.Post(r.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (r *rig) close() {
	r.cl.CloseIdleConnections()
	r.ts.Close()
	r.srv.Close()
}

// request builds the body of request i and the path it goes to.
func (r *rig) request(i int, outcomes bool) (path string, body []byte, err error) {
	if !r.w.screen {
		return "/v1/solve", r.bodies[i%len(r.bodies)], nil
	}
	body, err = json.Marshal(serve.ScreenRequest{
		System:        r.w.system,
		Draws:         [][]float64{r.pool.factors[i%len(r.pool.factors)]},
		Contingencies: contingencyWindow(r.cons, i, screenPerWindow),
		Outcomes:      outcomes,
	})
	return "/v1/screen", body, err
}

// obs is what a client saw of one request.
type obs struct {
	idx       int
	rtt       time.Duration
	cycle     time.Duration // rtt plus the client's own encoding, decoding and checking
	exec      time.Duration // program-reported time in the pipeline
	alloc     uint64        // bytes the process allocated meanwhile, client side included
	ops       int           // solves, or scenarios of a screen
	solved    int           // ops that ended in a converged answer
	shed      bool
	reqBytes  int
	respBytes int
	err       error // the response breaks the contract; every op of it failed

	solve  *serve.SolveResponse
	screen *serve.ScreenResponse
}

// do sends request i, reads the whole answer and checks it. tr may be
// nil (tracing off).
func (r *rig) do(i int, outcomes bool, tr *tracer) (o obs) {
	t0, a0 := time.Now(), heapAllocated()
	defer func() { o.cycle, o.alloc = time.Since(t0), heapAllocated()-a0 }()
	o = obs{idx: i, ops: 1}
	if r.w.screen {
		o.ops = screenPerWindow + 1
	}
	root := tr.begin("request", -1, i)
	defer tr.end(root)
	path, body, err := r.request(i, outcomes)
	if err != nil {
		o.err = err
		return o
	}
	o.reqBytes = len(body)
	rt := tr.begin("serve.roundtrip", root, i)
	sent := time.Now()
	status, raw, err := r.post(path, body)
	o.rtt = time.Since(sent)
	tr.end(rt)
	o.respBytes = len(raw)
	switch {
	case err != nil:
		o.err = err
	case status != http.StatusOK:
		o.shed = status == http.StatusServiceUnavailable
		o.err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	case r.w.screen:
		o.screen = new(serve.ScreenResponse)
		if o.err = json.Unmarshal(raw, o.screen); o.err == nil {
			o.exec = time.Duration(o.screen.ElapsedUS) * time.Microsecond
			o.solved, o.err = r.judgeScreen(o.screen, outcomes)
		}
	default:
		o.solve = new(serve.SolveResponse)
		if o.err = json.Unmarshal(raw, o.solve); o.err == nil {
			o.exec = time.Duration(o.solve.Timing.TotalUS) * time.Microsecond
			o.solved, o.err = r.judgeSolve(i%len(r.bodies), o.solve)
		}
	}
	tr.child("serve.execute", rt, o.exec)
	return o
}

// heapAllocated is the process's cumulative heap allocation in bytes,
// read without stopping the world.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// costGap is the served cost's distance from the reference optimum.
func costGap(cost, ref float64) float64 { return math.Abs(cost-ref) / math.Abs(ref) }

func (r *rig) judgeSolve(input int, s *serve.SolveResponse) (solved int, err error) {
	nb, ng := r.sys.Case.NB(), r.sys.Case.NG()
	switch {
	case !s.Converged:
		return 0, fmt.Errorf("not converged after %d iterations (path %s)", s.Iterations, s.Path)
	case len(s.Va) != nb || len(s.Vm) != nb || len(s.Pg) != ng || len(s.Qg) != ng:
		return 0, fmt.Errorf("solution vectors va/vm/pg/qg have %d/%d/%d/%d entries, want %d/%d/%d/%d",
			len(s.Va), len(s.Vm), len(s.Pg), len(s.Qg), nb, nb, ng, ng)
	case costGap(s.Cost, r.pool.refCost[input]) > costGapLimit:
		return 0, fmt.Errorf("cost %.9g is %.3g off the reference optimum %.9g (limit %g)",
			s.Cost, costGap(s.Cost, r.pool.refCost[input]), r.pool.refCost[input], costGapLimit)
	}
	return 1, nil
}

// judgeScreen checks a sweep's accounting. A scenario that ends in a
// solver error is a verdict of the screen (no secure dispatch found),
// not a failed request: it lowers solved, not err.
func (r *rig) judgeScreen(s *serve.ScreenResponse, outcomes bool) (solved int, err error) {
	switch {
	case s.Scenarios != screenPerWindow+1:
		return 0, fmt.Errorf("%d scenarios screened, want %d", s.Scenarios, screenPerWindow+1)
	case s.Feasible+s.Errors+s.Islanded != s.Scenarios:
		return 0, fmt.Errorf("feasible %d + errors %d + islanded %d != scenarios %d", s.Feasible, s.Errors, s.Islanded, s.Scenarios)
	case outcomes && len(s.Outcomes) != s.Scenarios:
		return 0, fmt.Errorf("%d outcomes for %d scenarios", len(s.Outcomes), s.Scenarios)
	}
	return s.Feasible + s.Islanded, nil
}

// checkStats is what the check pass learns: the counts that must repeat
// exactly under a seed.
type checkStats struct {
	ops, solved        int
	iterSum            float64   // iterations of accepted solves
	iterN              int       // accepted solves
	gaps               []float64 // relative cost gap of every answer that has a reference
	firstTry           int       // ops accepted on their first attempt (warm start converged, or a cold solve)
	restarts           int
	classes, projected int
	errors             int
}

// checkRequests is how many requests send every input once: the whole
// pool, or one rotation of the screen's contingency windows.
func (r *rig) checkRequests() int {
	if r.w.screen {
		return (len(r.cons) + screenPerWindow - 1) / screenPerWindow
	}
	return r.w.pool
}

// checkPass sends every input exactly once, sequentially: the warm-up,
// the correctness gate, and the source of the exact metrics. The first
// violation is returned with its input index.
func (r *rig) checkPass() (checkStats, error) {
	var c checkStats
	for i := 0; i < r.checkRequests(); i++ {
		o := r.do(i, true, nil)
		if o.err != nil {
			return c, fmt.Errorf("check pass: input %d: %w", i, o.err)
		}
		c.ops += o.ops
		c.solved += o.solved
		if s := o.solve; s != nil {
			c.iterSum += float64(s.Iterations)
			c.iterN++
			c.gaps = append(c.gaps, costGap(s.Cost, r.pool.refCost[i]))
			if !s.ColdRestarted {
				c.firstTry++
			} else {
				c.restarts++
			}
			r.served[i] = s.Iterations
			r.work = append(r.work, s.Iterations)
			if !r.w.cold && r.model != nil && s.Path == "cold" {
				return c, fmt.Errorf("check pass: input %d: served cold on a warm workload", i)
			}
		}
		if s := o.screen; s != nil {
			c.iterSum += s.MeanIterations * float64(s.Feasible)
			c.iterN += s.Feasible
			c.firstTry += s.WarmConverged
			c.classes += s.Classes
			c.projected += s.Projected
			c.errors += s.Errors
			for _, oc := range s.Outcomes {
				if oc.OutBranch >= 0 {
					continue
				}
				// The intact topology is pool input i itself.
				if !oc.Feasible {
					return c, fmt.Errorf("check pass: input %d: intact scenario not solved: %s", i, oc.Err)
				}
				c.gaps = append(c.gaps, costGap(oc.Cost, r.pool.refCost[i]))
				r.served[i] = oc.Iterations
			}
		}
	}
	r.order = r.rotationOrder()
	if !r.w.screen && c.solved != c.ops {
		return c, fmt.Errorf("check pass: %d of %d solves converged", c.solved, c.ops)
	}
	if gap := percentile(c.gaps, 100); gap > costGapLimit {
		return c, fmt.Errorf("check pass: cost gap %.3g above %g", gap, costGapLimit)
	}
	return c, nil
}

// rotationOrder picks the requests the timed load cycles through:
// every (n/rotation)-th of the check pass's n requests ordered by the
// iterations they cost, so that a rotation shorter than the check pass
// still has its mix of easy and hard requests.
//
// A screening request costs what its outages cost, whatever the draw:
// the same few outages end in a solver error under every seed, and a
// request with one takes three times as long as one without. Its
// rotation is therefore every (n/rotation)-th request in index order,
// the same outage windows under every seed; picked by cost, a rotation
// of six held one to three such requests depending on the seed, and the
// latency of its middle followed.
func (r *rig) rotationOrder() []int {
	byWork := make([]int, r.checkRequests())
	for i := range byWork {
		byWork[i] = i
	}
	if !r.w.screen {
		sort.SliceStable(byWork, func(a, b int) bool { return r.work[byWork[a]] < r.work[byWork[b]] })
	}
	order := make([]int, r.w.rotation)
	for k := range order {
		order[k] = byWork[k*len(byWork)/len(order)]
	}
	return order
}

// segment is one stretch of closed-loop load, in the order sent:
// request k of it is slot k mod rotation of the workload's rotation.
type segment struct {
	wall time.Duration
	obs  []obs
}

func (s segment) ops() (attempted, failed, solved int) {
	for _, o := range s.obs {
		attempted += o.ops
		solved += o.solved
		if o.err != nil {
			failed += o.ops
		}
	}
	return
}

func (s segment) latenciesMS() []float64 {
	v := make([]float64, len(s.obs))
	for i, o := range s.obs {
		v[i] = float64(o.rtt.Nanoseconds()) / 1e6
	}
	return v
}

// drive runs the closed loop for dur and for at least two rotations:
// the next request goes out when the previous answer has been read and
// checked.
func (r *rig) drive(dur time.Duration, tr *tracer) segment {
	var seg segment
	t0 := time.Now()
	for k := 0; k < 2*r.w.rotation || time.Since(t0) < dur; k++ {
		seg.obs = append(seg.obs, r.do(r.order[k%r.w.rotation], false, tr))
	}
	seg.wall = time.Since(t0)
	return seg
}

// quiet is the load's timing with the machine's disturbances taken
// out. The box this runs on loses up to half its speed for a fraction of
// a second at a time, many times a minute (a fixed spin loop shows the
// same), so a median over time measures the neighbours. Every request of the rotation is
// sent many times; its quiet time is the fastest of them.
type quiet struct {
	latencyMS float64 // interquartile mean over the rotation's requests of the quiet round trip
	rate      float64 // ops per second of a rotation with every request at its quiet cycle time
	allocKB   float64 // interquartile mean over the rotation's requests of the median KiB allocated per op
}

// quietOf computes the quiet timing from the repeats whose rotation
// number is ≡ phase mod stride (0, 1 for all of them).
func quietOf(seg segment, rotation, phase, stride int) quiet {
	rtt := make([]float64, rotation)
	cycle := make([]float64, rotation)
	allocs := make([][]float64, rotation)
	ops := 0
	for _, o := range seg.obs[:rotation] {
		ops += o.ops
	}
	for k, o := range seg.obs {
		j := k % rotation
		if o.err != nil || (k/rotation)%stride != phase {
			continue
		}
		if ms := float64(o.rtt.Nanoseconds()) / 1e6; rtt[j] == 0 || ms < rtt[j] {
			rtt[j] = ms
		}
		if s := o.cycle.Seconds(); cycle[j] == 0 || s < cycle[j] {
			cycle[j] = s
		}
		allocs[j] = append(allocs[j], float64(o.alloc)/1024/float64(o.ops))
	}
	// Allocation does not follow the machine's speed, but an arena that
	// the collector emptied is rebuilt by whichever request comes next:
	// the median repeat leaves that out.
	alloc := make([]float64, rotation)
	for j, v := range allocs {
		alloc[j] = median(v)
	}
	return quiet{latencyMS: midMean(rtt), rate: ratio(float64(ops), sum(cycle)), allocKB: midMean(alloc)}
}
