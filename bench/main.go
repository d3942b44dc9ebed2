// Command bench is the repository's benchmark: it boots the shipped
// serving configuration in-process, drives it closed-loop over loopback
// HTTP on seeded inputs, checks every answer, and reports what a client
// sees (end-to-end metrics, tracing off) or where the time goes (per-layer
// metrics, traced from outside). See README.md.
//
//	bash bench/run.sh --workload serve_warm_small --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                      # every workload, both passes, one result file
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Paths are relative to the repository root, where run.sh starts the
// binary.
const (
	outDir   = "bench/out"    // result files and traces
	buildDir = ".bench_build" // the binary, the build cache and model snapshots
)

// envelope is the environment a number was measured in.
type envelope struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func readEnvelope() envelope {
	e := envelope{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout the commit stays unknown; git does not go
	// looking for a repository above the working directory.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if b, err := cmd.Output(); err == nil {
			e.Commit = strings.TrimSpace(string(b))
		}
	}
	return e
}

// workloadResult is one workload's part of a result file; a pass fills
// its own section.
type workloadResult struct {
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Correct   bool      `json:"correct"`
}

// resultFile is what every output file of the benchmark looks like.
type resultFile struct {
	Env       envelope                   `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Clients   int                        `json:"clients"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return writeFile(path, b)
}

// writeTrace writes the spans of a traced pass out when it ends, one
// compact line: a case30 pass records some 10^5 of them.
func writeTrace(workload string, seed int64, env envelope, spans []span) error {
	b, err := json.Marshal(struct {
		Env      envelope `json:"env"`
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Spans    []span   `json:"spans"`
	}{env, workload, seed, spans})
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(outDir, "trace-"+workload+".json"), b)
}

// passFile is where one pass of one workload leaves its result for the
// run of every workload to collect.
func passFile(workload string, traced bool) string {
	pass := "timed"
	if traced {
		pass = "traced"
	}
	return filepath.Join(outDir, "pass-"+workload+"-"+pass+".json")
}

func printMetrics(defs []metricDef, m metricSet) {
	for _, d := range defs {
		e := m[d.name]
		switch {
		case e.N == 0:
			fmt.Printf("  %-30s %14s %-10s (not exercised by this workload)\n", d.name, "-", e.Unit)
		case e.Spread > 0:
			fmt.Printf("  %-30s %14.6g %-10s n=%d halves differ %.1f%%\n", d.name, e.Value, e.Unit, e.N, 100*e.Spread)
		default:
			fmt.Printf("  %-30s %14.6g %-10s n=%d\n", d.name, e.Value, e.Unit, e.N)
		}
	}
}

// runOne is the form the benchmark driver calls: one workload, one
// pass, the result as the last line of standard output.
func runOne(name string, seed int64, seconds int, traced bool) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	// One processor for the whole run, set-up included: the shipped
	// configuration as it runs on a one-core box. See the clients constant.
	runtime.GOMAXPROCS(1)
	env := readEnvelope()
	out, err := runWorkload(w, seed, seconds, traced, env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	defs, res := endToEnd, &workloadResult{EndToEnd: out.metrics}
	if traced {
		defs, res = perLayer, &workloadResult{PerLayer: out.metrics}
	}
	res.Attempted, res.Failed, res.Correct = out.attempted, out.failed, len(out.problems) == 0
	fmt.Printf("%s seed=%d clients=%d seconds=%d traced=%v\n", name, seed, clients, seconds, traced)
	printMetrics(defs, out.metrics)
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, p)
	}
	file := resultFile{
		Env: env, Seed: seed, Seconds: seconds, Clients: clients,
		Workloads: map[string]*workloadResult{name: res},
	}
	if err := writeJSON(passFile(name, traced), file); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	type reported struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]reported{}}
	for k, v := range out.metrics {
		line.Metrics[k] = reported{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each pass in a process of its own so that
// set-up time, peak memory and collector state do not leak between
// them, and collects the passes into one result file.
func runAll(seed int64, seconds int, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	all := resultFile{Seed: seed, Seconds: seconds, Clients: clients, Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		merged := &workloadResult{Correct: true}
		for _, traced := range []bool{false, true} {
			trace := "0"
			if traced {
				trace = "1"
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			var pass resultFile
			if err := readJSON(passFile(w.name, traced), &pass); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			got := pass.Workloads[w.name]
			all.Env = pass.Env
			merged.Attempted += got.Attempted
			merged.Failed += got.Failed
			merged.Correct = merged.Correct && got.Correct
			if traced {
				merged.PerLayer = got.PerLayer
			} else {
				merged.EndToEnd = got.EndToEnd
			}
		}
		all.Workloads[w.name] = merged
	}
	if err := writeJSON(outPath, all); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("result written to %s\n", outPath)
	return 0
}

// benchmarkSpec is the part of BENCHMARK.json a comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles prints, per workload and end-to-end metric, the base and
// the change, their ratio with its base, and the verdict under the
// metric's bound.
func compareFiles(spec benchmarkSpec, base, change resultFile) (regressed int) {
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-18s %-20s %14s %14s %22s  %s\n", "workload", "metric", "base", "change", "change/base", "verdict")
	for _, name := range names {
		b, c := base.Workloads[name], change.Workloads[name]
		if c == nil {
			fmt.Printf("%-18s missing from the change\n", name)
			regressed++
			continue
		}
		for _, d := range spec.EndToEnd {
			bm, cm := b.EndToEnd[d.Name], c.EndToEnd[d.Name]
			worse, verdict := compareMetric(bm, cm, d.Better, d.Bound)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %9.4f of %-9.6g  %s (%+.1f%% worse, bound %.0f%%, %s is better)\n",
				name, d.Name, bm.Value, cm.Value, ratio(cm.Value, bm.Value), bm.Value, verdict, 100*worse, 100*d.Bound, d.Better)
		}
	}
	return regressed
}

func runCompare(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two result files: base.json change.json")
		return 2
	}
	var spec benchmarkSpec
	var files [2]resultFile
	for _, err := range []error{readJSON("BENCHMARK.json", &spec), readJSON(paths[0], &files[0]), readJSON(paths[1], &files[1])} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	if files[0].Env.CPU != files[1].Env.CPU || files[0].Seed != files[1].Seed || files[0].Seconds != files[1].Seconds {
		fmt.Printf("note: the files differ in machine, seed or run length; timings do not compare\n")
	}
	if compareFiles(spec, files[0], files[1]) > 0 {
		return 1
	}
	return 0
}

func main() {
	workload := flag.String("workload", "", "run one workload and print its result line (default: every workload, both passes)")
	seed := flag.Int64("seed", 1, "seed of the request pool")
	seconds := flag.Int("seconds", 15, "how long one pass measures")
	trace := flag.Int("trace", 0, "with -workload: 0 = timed run, end-to-end metrics; 1 = traced pass, per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result files under the bounds of BENCHMARK.json: -compare base.json change.json")
	out := flag.String("out", filepath.Join(outDir, "result.json"), "result file of a run of every workload")
	trainOnly := flag.String("train", "", "train the named workload's model snapshot and exit (a run without one does this by itself)")
	flag.Parse()
	switch {
	case *trainOnly != "":
		w, ok := findWorkload(*trainOnly)
		if !ok || w.epochs == 0 {
			fmt.Fprintf(os.Stderr, "bench: no model to train for workload %q\n", *trainOnly)
			os.Exit(2)
		}
		runtime.GOMAXPROCS(1)
		if err := trainSnapshot(w); err != nil {
			fmt.Fprintf(os.Stderr, "bench: training %s: %v\n", w.name, err)
			os.Exit(1)
		}
	case *compare:
		os.Exit(runCompare(flag.Args()))
	case *seconds < 1:
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	case *workload != "":
		os.Exit(runOne(*workload, *seed, *seconds, *trace == 1))
	default:
		os.Exit(runAll(*seed, *seconds, *out))
	}
}
