package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

func TestPercentileAndMidMean(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 9}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if v[0] != 9 {
		t.Error("percentile reordered its argument")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Two clusters an iteration apart: the median sits on one of them,
	// the middle half's mean between them.
	clusters := []float64{14, 14, 14, 14, 16, 16, 16, 16}
	if got := midMean(clusters); got != 15 {
		t.Errorf("midMean(%v) = %v, want 15", clusters, got)
	}
	if got := midMean([]float64{1, 2, 3, 100}); got != 2.5 {
		t.Errorf("midMean drops the outer quarters: got %v, want 2.5", got)
	}
}

func TestQuietTakesTheFastestRepeat(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	// A rotation of 2 requests sent 3 times; the machine was disturbed
	// during the first and last rotation.
	var seg segment
	for _, rtt := range []float64{30, 50, 10, 20, 10.5, 90} {
		seg.obs = append(seg.obs, obs{rtt: ms(rtt), cycle: ms(rtt + 1), ops: 1})
	}
	q := quietOf(seg, 2, 0, 1)
	if q.latencyMS != 15 {
		t.Errorf("quiet latency = %v ms, want the mean of the fastest repeats 10 and 20", q.latencyMS)
	}
	if want := 2 / 0.032; math.Abs(q.rate-want) > 1e-9 {
		t.Errorf("quiet rate = %v ops/s, want %v (2 ops in 11+21 ms)", q.rate, want)
	}
	// The halves see other repeats: even rotations 0 and 2, odd rotation 1.
	if even, odd := quietOf(seg, 2, 0, 2), quietOf(seg, 2, 1, 2); even.latencyMS != 30.25 || odd.latencyMS != 15 {
		t.Errorf("halves = %v and %v ms, want 30.25 and 15", even.latencyMS, odd.latencyMS)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "roundtrip", Parent: 0, Start: 10, End: 90},
		{Name: "execute", Parent: 1, Start: 30, End: 90},
		{Name: "a", Parent: 0, Start: 85, End: 95},    // overlaps roundtrip: counted once
		{Name: "b", Parent: 0, Start: 98, End: 120},   // sticks out of its parent: clipped
		{Name: "leaf", Parent: 4, Start: 99, End: 99}, // empty
	}
	want := []int64{100 - 80 - 5 - 2, 80 - 60, 60, 10, 22, 0}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tab := tabulate(spans)
	if got := tab.self["roundtrip"]; len(got) != 1 || got[0] != 0.02 {
		t.Errorf("roundtrip self time = %v us, want [0.02]", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	tr.endAs(id, "y")
	tr.child("z", id, time.Millisecond)

	tr = newTracer()
	p := tr.begin("parent", -1, 7)
	tr.end(p)
	tr.child("reported", p, time.Hour) // longer than its parent: clipped to it
	if c := tr.spans[1]; c.Parent != p || c.Req != 7 || c.Start != tr.spans[p].Start || c.End != tr.spans[p].End {
		t.Errorf("child span %+v does not sit inside its parent %+v", c, tr.spans[p])
	}
}

func TestCompareMetric(t *testing.T) {
	for _, c := range []struct {
		name         string
		base, change metric
		better       string
		bound        float64
		worse        float64
		verdict      string
	}{
		{name: "lower is better, slower by 5% of base", base: metric{Value: 10}, change: metric{Value: 10.5}, better: "lower", bound: 0.1, worse: 0.05, verdict: verdictOK},
		{name: "lower is better, slower by 20%", base: metric{Value: 10}, change: metric{Value: 12}, better: "lower", bound: 0.1, worse: 0.2, verdict: verdictRegressed},
		{name: "higher is better, down by 20%", base: metric{Value: 100}, change: metric{Value: 80}, better: "higher", bound: 0.1, worse: 0.2, verdict: verdictRegressed},
		{name: "higher is better, up", base: metric{Value: 100}, change: metric{Value: 130}, better: "higher", bound: 0.1, worse: -0.3, verdict: verdictOK},
		{name: "noisy run cannot resolve the bound", base: metric{Value: 10, Spread: 0.3}, change: metric{Value: 12}, better: "lower", bound: 0.1, worse: 0.2, verdict: verdictUnresolved},
		{name: "noisy change side, equal values", base: metric{Value: 10}, change: metric{Value: 10, Spread: 0.11}, better: "lower", bound: 0.1, worse: 0, verdict: verdictUnresolved},
		{name: "exact metric, identical", base: metric{Value: 5.75}, change: metric{Value: 5.75}, better: "lower", bound: 0.01, worse: 0, verdict: verdictOK},
	} {
		worse, verdict := compareMetric(c.base, c.change, c.better, c.bound)
		if math.Abs(worse-c.worse) > 1e-12 || verdict != c.verdict {
			t.Errorf("%s: got %+.3f %s, want %+.3f %s", c.name, worse, verdict, c.worse, c.verdict)
		}
	}
}

func TestPoolSeedAvoidsTrainingSeed(t *testing.T) {
	const train = 42 + 30
	for seed := int64(-5); seed < 5; seed++ {
		if poolSeed(seed, train) == train {
			t.Errorf("poolSeed(%d) is the training-data seed", seed)
		}
	}
	if s := poolSeed(train-1_000_003, train); s == train {
		t.Errorf("poolSeed maps onto the training-data seed %d", train)
	}
	if poolSeed(1, train) == poolSeed(2, train) {
		t.Error("two seeds share a pool")
	}
}

func TestPoolIsDeterministicAndSolvable(t *testing.T) {
	sys, err := core.LoadSystem("case9")
	if err != nil {
		t.Fatal(err)
	}
	a, err := newPool(sys, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPool(sys, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two pools")
	}
	c, err := newPool(sys, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.factors, c.factors) {
		t.Error("two seeds gave the same pool")
	}
	if len(a.factors) != 8 || len(a.refCost) != 8 || a.drawn != 16 {
		t.Errorf("pool has %d inputs, %d reference costs from %d draws; want 8, 8, 16", len(a.factors), len(a.refCost), a.drawn)
	}
	for i, f := range a.factors {
		if len(f) != sys.Case.NB() || a.refCost[i] <= 0 {
			t.Errorf("input %d: %d factors, reference cost %v", i, len(f), a.refCost[i])
		}
	}
}

func TestContingencyWindowsCoverEveryOutage(t *testing.T) {
	cons := make([]int, 177) // the connected N-1 set of case118
	for i := range cons {
		cons[i] = 1000 + i
	}
	seen := map[int]int{}
	requests := (len(cons) + screenPerWindow - 1) / screenPerWindow
	if requests != 45 {
		t.Fatalf("%d requests in the check pass, want 45", requests)
	}
	for i := 0; i < requests; i++ {
		w := contingencyWindow(cons, i, screenPerWindow)
		if len(w) != screenPerWindow {
			t.Fatalf("window %d has %d outages", i, len(w))
		}
		for _, l := range w {
			seen[l]++
		}
	}
	if len(seen) != len(cons) {
		t.Errorf("%d windows cover %d of %d outages", requests, len(seen), len(cons))
	}
	// 45·4 − 177 = 3 outages wrap around into the last window.
	twice := 0
	for _, n := range seen {
		if n == 2 {
			twice++
		}
	}
	if twice != requests*screenPerWindow-len(cons) {
		t.Errorf("%d outages screened twice, want %d", twice, requests*screenPerWindow-len(cons))
	}
}

func TestRotationOrder(t *testing.T) {
	// A solve rotation is stratified by what the check pass's requests cost.
	solve := &rig{w: workload{pool: 6, rotation: 3}, work: []int{9, 5, 7, 5, 30, 8}}
	if got, want := solve.rotationOrder(), []int{1, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("solve rotation = %v, want %v", got, want)
	}
	// A screen rotation is the same outage windows whatever the draws cost.
	screen := &rig{w: workload{rotation: 15, screen: true}, cons: make([]int, 177)}
	want := make([]int, 15)
	for k := range want {
		want[k] = 3 * k
	}
	if got := screen.rotationOrder(); !slices.Equal(got, want) {
		t.Errorf("screen rotation = %v, want %v", got, want)
	}
}

func TestMatchDigits(t *testing.T) {
	for _, c := range []struct{ gap, want float64 }{{1e-9, 9}, {0, 16}, {1e-20, 16}, {1e-6, 6}} {
		if got := matchDigits(c.gap); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("matchDigits(%g) = %v, want %v", c.gap, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTheCode holds BENCHMARK.json and the metric
// and workload tables of this package together.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, listed []entry, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d, the code %d", what, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", what, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, spec.Workloads[i].Name, w.name)
		}
		if w.rotation > w.pool && !w.screen {
			t.Errorf("%s: rotation %d exceeds its pool %d", w.name, w.rotation, w.pool)
		}
	}
}
