package grid

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// TotalLoad returns total (Pd, Qd) in MW/MVAr.
func (c *Case) TotalLoad() (p, q float64) {
	for _, b := range c.Buses {
		p += b.Pd
		q += b.Qd
	}
	return p, q
}

// WriteMatpower serializes the case in Matpower case-file syntax. The
// output round-trips through ParseMatpower.
func WriteMatpower(w io.Writer, c *Case) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "function mpc = %s\n", sanitizeName(c.Name))
	fmt.Fprintf(bw, "mpc.version = '2';\n")
	fmt.Fprintf(bw, "mpc.baseMVA = %g;\n", c.BaseMVA)
	fmt.Fprintf(bw, "%%%% bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin\n")
	fmt.Fprintf(bw, "mpc.bus = [\n")
	for _, b := range c.Buses {
		fmt.Fprintf(bw, "\t%d\t%d\t%g\t%g\t%g\t%g\t1\t%g\t%g\t%g\t1\t%g\t%g;\n",
			b.ID, b.Type, b.Pd, b.Qd, b.Gs, b.Bs, b.Vm, b.Va, b.BaseKV, b.Vmax, b.Vmin)
	}
	fmt.Fprintf(bw, "];\n")
	fmt.Fprintf(bw, "mpc.gen = [\n")
	for _, g := range c.Gens {
		st := 0
		if g.Status {
			st = 1
		}
		fmt.Fprintf(bw, "\t%d\t%g\t%g\t%g\t%g\t%g\t%g\t%d\t%g\t%g;\n",
			g.Bus, g.Pg, g.Qg, g.Qmax, g.Qmin, g.Vg, c.BaseMVA, st, g.Pmax, g.Pmin)
	}
	fmt.Fprintf(bw, "];\n")
	fmt.Fprintf(bw, "mpc.branch = [\n")
	for _, b := range c.Branches {
		st := 0
		if b.Status {
			st = 1
		}
		fmt.Fprintf(bw, "\t%d\t%d\t%g\t%g\t%g\t%g\t%g\t%g\t%g\t%g\t%d;\n",
			b.From, b.To, b.R, b.X, b.B, b.RateA, b.RateA, b.RateA, b.Ratio, b.Shift, st)
	}
	fmt.Fprintf(bw, "];\n")
	fmt.Fprintf(bw, "mpc.gencost = [\n")
	for _, g := range c.Gens {
		fmt.Fprintf(bw, "\t2\t0\t0\t3\t%g\t%g\t%g;\n", g.Cost.C2, g.Cost.C1, g.Cost.C0)
	}
	fmt.Fprintf(bw, "];\n")
	return bw.Flush()
}

func sanitizeName(s string) string {
	if s == "" {
		return "mpcase"
	}
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// entry returns element (i, j) of a.
func entry(a *sparse.CSCComplex, i, j int) complex128 {
	for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
		if a.RowIdx[p] == i {
			return a.Val[p]
		}
	}
	return 0
}

func TestNormalizeValidation(t *testing.T) {
	mk := func() *Case {
		return &Case{
			Name: "t", BaseMVA: 100,
			Buses: []Bus{
				{ID: 1, Type: Ref, Vm: 1, Vmax: 1.1, Vmin: 0.9},
				{ID: 2, Type: PQ, Vm: 1, Vmax: 1.1, Vmin: 0.9},
			},
			Gens:     []Gen{{Bus: 1, Status: true, Pmax: 10, Qmax: 10, Qmin: -10}},
			Branches: []Branch{{From: 1, To: 2, X: 0.1, Status: true}},
		}
	}
	if err := mk().Normalize(); err != nil {
		t.Fatalf("valid case rejected: %v", err)
	}
	c := mk()
	c.BaseMVA = 0
	if err := c.Normalize(); err == nil {
		t.Error("zero BaseMVA accepted")
	}
	c = mk()
	c.Buses[1].ID = 1
	if err := c.Normalize(); err == nil {
		t.Error("duplicate bus ID accepted")
	}
	c = mk()
	c.Buses[0].Type = PQ
	if err := c.Normalize(); err == nil {
		t.Error("missing ref bus accepted")
	}
	c = mk()
	c.Gens[0].Bus = 99
	if err := c.Normalize(); err == nil {
		t.Error("gen at unknown bus accepted")
	}
	c = mk()
	c.Branches[0].X = 0
	if err := c.Normalize(); err == nil {
		t.Error("zero-impedance branch accepted")
	}
	c = mk()
	c.Gens[0].Pmin = 20
	if err := c.Normalize(); err == nil {
		t.Error("inverted gen limits accepted")
	}
	c = mk()
	c.Buses[0].Vmax = 0.5
	if err := c.Normalize(); err == nil {
		t.Error("Vmax < Vmin accepted")
	}
}

func TestEmbeddedCases(t *testing.T) {
	for _, tc := range []struct {
		c          *Case
		nb, ng, nl int
		loadP      float64
	}{
		{Case9(), 9, 3, 9, 315},
		{Case5(), 5, 5, 6, 1000},
		{Case14(), 14, 5, 20, 259},
	} {
		if tc.c.NB() != tc.nb || tc.c.NG() != tc.ng || tc.c.NL() != tc.nl {
			t.Errorf("%s counts = %d/%d/%d want %d/%d/%d", tc.c.Name,
				tc.c.NB(), tc.c.NG(), tc.c.NL(), tc.nb, tc.ng, tc.nl)
		}
		p, _ := tc.c.TotalLoad()
		if math.Abs(p-tc.loadP) > 0.1 {
			t.Errorf("%s total load %.2f want %.2f", tc.c.Name, p, tc.loadP)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c := Case9()
	cp := c.Clone()
	cp.Buses[4].Pd = 999
	if c.Buses[4].Pd == 999 {
		t.Fatal("Clone shares bus storage")
	}
	if cp.BusIndex(5) != c.BusIndex(5) {
		t.Fatal("Clone lost bus index")
	}
}

func TestScaleLoads(t *testing.T) {
	c := Case9()
	f := make([]float64, c.NB())
	for i := range f {
		f[i] = 1.1
	}
	p0, q0 := c.TotalLoad()
	c.ScaleLoads(f)
	p1, q1 := c.TotalLoad()
	if math.Abs(p1-1.1*p0) > 1e-9 || math.Abs(q1-1.1*q0) > 1e-9 {
		t.Fatalf("ScaleLoads: %v %v", p1, q1)
	}
}

func TestMakeYbusTwoBusLine(t *testing.T) {
	c := &Case{
		Name: "2bus", BaseMVA: 100,
		Buses: []Bus{
			{ID: 1, Type: Ref, Vm: 1, Vmax: 1.1, Vmin: 0.9},
			{ID: 2, Type: PQ, Vm: 1, Vmax: 1.1, Vmin: 0.9},
		},
		Branches: []Branch{{From: 1, To: 2, R: 0.01, X: 0.1, B: 0.2, Status: true}},
		Gens:     []Gen{{Bus: 1, Status: true, Pmax: 1, Qmax: 1, Qmin: -1}},
	}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	y := MakeYbus(c)
	ys := 1 / complex(0.01, 0.1)
	want00 := ys + complex(0, 0.1)
	if cmplx.Abs(entry(y.Ybus, 0, 0)-want00) > 1e-12 {
		t.Errorf("Y[0,0] = %v want %v", entry(y.Ybus, 0, 0), want00)
	}
	if cmplx.Abs(entry(y.Ybus, 0, 1)+ys) > 1e-12 {
		t.Errorf("Y[0,1] = %v want %v", entry(y.Ybus, 0, 1), -ys)
	}
	if cmplx.Abs(entry(y.Ybus, 0, 1)-entry(y.Ybus, 1, 0)) > 1e-12 {
		t.Error("line Ybus not symmetric")
	}
}

func TestMakeYbusTapShift(t *testing.T) {
	c := &Case{
		Name: "tap", BaseMVA: 100,
		Buses: []Bus{
			{ID: 1, Type: Ref, Vm: 1, Vmax: 1.1, Vmin: 0.9},
			{ID: 2, Type: PQ, Vm: 1, Vmax: 1.1, Vmin: 0.9},
		},
		Branches: []Branch{{From: 1, To: 2, X: 0.1, Ratio: 0.95, Shift: 10, Status: true}},
		Gens:     []Gen{{Bus: 1, Status: true, Pmax: 1, Qmax: 1, Qmin: -1}},
	}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	y := MakeYbus(c)
	ys := 1 / complex(0, 0.1)
	tap := complex(0.95, 0) * cmplx.Exp(complex(0, Deg2Rad(10)))
	if cmplx.Abs(y.Yf.Vf[0]-ys/(tap*cmplx.Conj(tap))) > 1e-12 {
		t.Error("Yff with tap wrong")
	}
	if cmplx.Abs(y.Yf.Vt[0]+ys/cmplx.Conj(tap)) > 1e-12 {
		t.Error("Yft with tap wrong")
	}
	if cmplx.Abs(y.Yt.Vf[0]+ys/tap) > 1e-12 {
		t.Error("Ytf with tap wrong")
	}
}

func TestBusShuntInYbus(t *testing.T) {
	c := Case14() // bus 9 has Bs = 19 MVAr
	y := MakeYbus(c)
	i := c.BusIndex(9)
	// Remove the shunt and compare the diagonal: difference must be j·0.19.
	c2 := c.Clone()
	c2.Buses[i].Bs = 0
	y2 := MakeYbus(c2)
	d := entry(y.Ybus, i, i) - entry(y2.Ybus, i, i)
	if cmplx.Abs(d-complex(0, 0.19)) > 1e-12 {
		t.Fatalf("shunt contribution = %v", d)
	}
}

func TestSbusAndMismatchConsistency(t *testing.T) {
	c := Case9()
	y := MakeYbus(c)
	nb := c.NB()
	vm := make([]float64, nb)
	va := make([]float64, nb)
	for i := range vm {
		vm[i] = 1.02
		va[i] = 0.01 * float64(i)
	}
	v := Voltage(vm, va)
	// Choose Sbus exactly equal to the computed injection: mismatch must
	// vanish.
	ib := y.Ybus.MulVec(v)
	sb := make([]complex128, nb)
	for i := range sb {
		sb[i] = v[i] * cmplx.Conj(ib[i])
	}
	mis := PowerMismatch(y, v, sb)
	for i, m := range mis {
		if cmplx.Abs(m) > 1e-12 {
			t.Fatalf("mismatch[%d] = %v", i, m)
		}
	}
}

func TestBranchFlowBalance(t *testing.T) {
	// Power injected at each bus equals the sum of the flows leaving on
	// its incident branches (case without bus shunts).
	c := Case9()
	y := MakeYbus(c)
	nb := c.NB()
	vm := make([]float64, nb)
	va := make([]float64, nb)
	for i := range vm {
		vm[i] = 1 + 0.01*float64(i%3)
		va[i] = -0.02 * float64(i)
	}
	v := Voltage(vm, va)
	sf, st := BranchFlows(y, v)
	inj := make([]complex128, nb)
	for l := range sf {
		inj[y.FIdx[l]] += sf[l]
		inj[y.TIdx[l]] += st[l]
	}
	ib := y.Ybus.MulVec(v)
	for i := 0; i < nb; i++ {
		want := v[i] * cmplx.Conj(ib[i])
		if cmplx.Abs(inj[i]-want) > 1e-10 {
			t.Fatalf("bus %d: flows %v vs injection %v", i, inj[i], want)
		}
	}
}

func TestMakeSbus(t *testing.T) {
	c := Case9()
	pg := []float64{0.723, 1.63, 0.85}
	qg := []float64{0.2703, 0.0654, -0.1095}
	sb := MakeSbus(c, pg, qg)
	// Bus 5 (index 4): pure load 90+j30 on a 100 MVA base.
	if cmplx.Abs(sb[4]-complex(-0.9, -0.3)) > 1e-12 {
		t.Errorf("Sbus[4] = %v", sb[4])
	}
	// Bus 2 (index 1): generator 2.
	if cmplx.Abs(sb[1]-complex(1.63, 0.0654)) > 1e-12 {
		t.Errorf("Sbus[1] = %v", sb[1])
	}
}

func TestGenBusIdxMultipleAtBus(t *testing.T) {
	c := Case5() // two generators at bus 1
	idx := GenBusIdx(c)
	if len(idx) != 5 || idx[0] != idx[1] {
		t.Fatalf("GenBusIdx = %v", idx)
	}
}

func TestPolyCost(t *testing.T) {
	pc := PolyCost{C2: 2, C1: 3, C0: 5}
	if pc.Eval(4) != 2*16+3*4+5 {
		t.Errorf("Eval = %v", pc.Eval(4))
	}
	if pc.Deriv(4) != 2*2*4+3 {
		t.Errorf("Deriv = %v", pc.Deriv(4))
	}
	if pc.Deriv2() != 4 {
		t.Errorf("Deriv2 = %v", pc.Deriv2())
	}
}

// testVoltage returns a slightly perturbed non-flat voltage profile.
func testVoltage(nb int) ([]float64, []float64) {
	vm := make([]float64, nb)
	va := make([]float64, nb)
	for i := 0; i < nb; i++ {
		vm[i] = 1.0 + 0.03*math.Sin(float64(i)+1)
		va[i] = 0.05 * math.Cos(2*float64(i))
	}
	return vm, va
}

func TestDSbusDVFiniteDiff(t *testing.T) {
	c := Case14()
	y := MakeYbus(c)
	nb := c.NB()
	vm, va := testVoltage(nb)
	dVa, dVm := DSbusDV(y.Ybus, Voltage(vm, va))
	h := 1e-7
	sbusAt := func(vm, va []float64) []complex128 {
		v := Voltage(vm, va)
		ib := y.Ybus.MulVec(v)
		s := make([]complex128, nb)
		for i := range s {
			s[i] = v[i] * cmplx.Conj(ib[i])
		}
		return s
	}
	for j := 0; j < nb; j++ {
		vap := append([]float64(nil), va...)
		vam := append([]float64(nil), va...)
		vap[j] += h
		vam[j] -= h
		sp := sbusAt(vm, vap)
		sm := sbusAt(vm, vam)
		for i := 0; i < nb; i++ {
			fd := (sp[i] - sm[i]) / complex(2*h, 0)
			if cmplx.Abs(fd-entry(dVa, i, j)) > 1e-5 {
				t.Fatalf("dS/dVa[%d,%d]: fd %v analytic %v", i, j, fd, entry(dVa, i, j))
			}
		}
		vmp := append([]float64(nil), vm...)
		vmm := append([]float64(nil), vm...)
		vmp[j] += h
		vmm[j] -= h
		sp = sbusAt(vmp, va)
		sm = sbusAt(vmm, va)
		for i := 0; i < nb; i++ {
			fd := (sp[i] - sm[i]) / complex(2*h, 0)
			if cmplx.Abs(fd-entry(dVm, i, j)) > 1e-5 {
				t.Fatalf("dS/dVm[%d,%d]: fd %v analytic %v", i, j, fd, entry(dVm, i, j))
			}
		}
	}
}

func TestDSbrDVFiniteDiff(t *testing.T) {
	c := Case9()
	y := MakeYbus(c)
	nb := c.NB()
	nl := y.Yf.NL()
	vm, va := testVoltage(nb)
	dSfVa, dSfVm, dStVa, dStVm, _, _ := DSbrDV(y, Voltage(vm, va))
	h := 1e-7
	flows := func(vm, va []float64) ([]complex128, []complex128) {
		return BranchFlows(y, Voltage(vm, va))
	}
	get := func(m *BranchMat, l, j int) complex128 {
		var s complex128
		if m.F[l] == j {
			s += m.Vf[l]
		}
		if m.T[l] == j {
			s += m.Vt[l]
		}
		return s
	}
	for j := 0; j < nb; j++ {
		vap := append([]float64(nil), va...)
		vam := append([]float64(nil), va...)
		vap[j] += h
		vam[j] -= h
		sfp, stp := flows(vm, vap)
		sfm, stm := flows(vm, vam)
		vmp := append([]float64(nil), vm...)
		vmm := append([]float64(nil), vm...)
		vmp[j] += h
		vmm[j] -= h
		sfpm, stpm := flows(vmp, va)
		sfmm, stmm := flows(vmm, va)
		for l := 0; l < nl; l++ {
			fd := (sfp[l] - sfm[l]) / complex(2*h, 0)
			if cmplx.Abs(fd-get(dSfVa, l, j)) > 1e-5 {
				t.Fatalf("dSf/dVa[%d,%d] fd %v vs %v", l, j, fd, get(dSfVa, l, j))
			}
			fd = (stp[l] - stm[l]) / complex(2*h, 0)
			if cmplx.Abs(fd-get(dStVa, l, j)) > 1e-5 {
				t.Fatalf("dSt/dVa[%d,%d] fd %v vs %v", l, j, fd, get(dStVa, l, j))
			}
			fd = (sfpm[l] - sfmm[l]) / complex(2*h, 0)
			if cmplx.Abs(fd-get(dSfVm, l, j)) > 1e-5 {
				t.Fatalf("dSf/dVm[%d,%d] fd %v vs %v", l, j, fd, get(dSfVm, l, j))
			}
			fd = (stpm[l] - stmm[l]) / complex(2*h, 0)
			if cmplx.Abs(fd-get(dStVm, l, j)) > 1e-5 {
				t.Fatalf("dSt/dVm[%d,%d] fd %v vs %v", l, j, fd, get(dStVm, l, j))
			}
		}
	}
}

func TestDAbrDVAgainstFiniteDiff(t *testing.T) {
	c := Case9()
	y := MakeYbus(c)
	nb := c.NB()
	vm, va := testVoltage(nb)
	v := Voltage(vm, va)
	dSfVa, dSfVm, _, _, sf, _ := DSbrDV(y, v)
	dAVa, dAVm := DAbrDV(dSfVa, dSfVm, sf)
	h := 1e-7
	af := func(vm, va []float64) []float64 {
		s, _ := BranchFlows(y, Voltage(vm, va))
		out := make([]float64, len(s))
		for l := range s {
			m := cmplx.Abs(s[l])
			out[l] = m * m
		}
		return out
	}
	get := func(m *BranchMatReal, l, j int) float64 {
		var s float64
		if m.F[l] == j {
			s += m.Vf[l]
		}
		if m.T[l] == j {
			s += m.Vt[l]
		}
		return s
	}
	for j := 0; j < nb; j++ {
		vap := append([]float64(nil), va...)
		vap[j] += h
		vam := append([]float64(nil), va...)
		vam[j] -= h
		ap, am := af(vm, vap), af(vm, vam)
		vmp := append([]float64(nil), vm...)
		vmp[j] += h
		vmm := append([]float64(nil), vm...)
		vmm[j] -= h
		ap2, am2 := af(vmp, va), af(vmm, va)
		for l := 0; l < y.Yf.NL(); l++ {
			fd := (ap[l] - am[l]) / (2 * h)
			if math.Abs(fd-get(dAVa, l, j)) > 1e-5 {
				t.Fatalf("dA/dVa[%d,%d] fd %v vs %v", l, j, fd, get(dAVa, l, j))
			}
			fd = (ap2[l] - am2[l]) / (2 * h)
			if math.Abs(fd-get(dAVm, l, j)) > 1e-5 {
				t.Fatalf("dA/dVm[%d,%d] fd %v vs %v", l, j, fd, get(dAVm, l, j))
			}
		}
	}
}

func TestMatpowerRoundTrip(t *testing.T) {
	for _, c := range []*Case{Case9(), Case5(), Case14()} {
		var sb strings.Builder
		if err := WriteMatpower(&sb, c); err != nil {
			t.Fatal(err)
		}
		got, err := ParseMatpower(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: parse: %v", c.Name, err)
		}
		if got.NB() != c.NB() || got.NG() != c.NG() || got.NL() != c.NL() {
			t.Fatalf("%s: counts changed", c.Name)
		}
		if math.Abs(got.BaseMVA-c.BaseMVA) > 1e-12 {
			t.Fatalf("%s: baseMVA changed", c.Name)
		}
		for i := range c.Buses {
			if math.Abs(got.Buses[i].Pd-c.Buses[i].Pd) > 1e-9 ||
				got.Buses[i].Type != c.Buses[i].Type {
				t.Fatalf("%s: bus %d changed", c.Name, i)
			}
		}
		for i := range c.Gens {
			if math.Abs(got.Gens[i].Cost.C2-c.Gens[i].Cost.C2) > 1e-12 ||
				math.Abs(got.Gens[i].Pmax-c.Gens[i].Pmax) > 1e-9 {
				t.Fatalf("%s: gen %d changed", c.Name, i)
			}
		}
		for i := range c.Branches {
			if math.Abs(got.Branches[i].X-c.Branches[i].X) > 1e-12 ||
				math.Abs(got.Branches[i].Ratio-c.Branches[i].Ratio) > 1e-12 {
				t.Fatalf("%s: branch %d changed", c.Name, i)
			}
		}
	}
}

func TestParseMatpowerRejectsBadInput(t *testing.T) {
	bad := []string{
		"mpc.baseMVA = xyz;",
		"mpc.baseMVA = 100;\nmpc.bus = [1 3 0 0;];", // too few columns
		"mpc.baseMVA = 100;",                        // no bus table
	}
	for _, src := range bad {
		if _, err := ParseMatpower(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseMatpowerComments(t *testing.T) {
	src := `function mpc = mini
% a comment
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
	1 3 0 0 0 0 1 1 0 0 1 1.1 0.9; % slack
	2 1 10 5 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
	1 0 0 10 -10 1 100 1 50 0;
];
mpc.branch = [
	1 2 0.01 0.1 0 0 0 0 0 0 1;
];
mpc.gencost = [
	2 0 0 3 0.1 10 0;
];
`
	c, err := ParseMatpower(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "mini" || c.NB() != 2 || c.NG() != 1 || c.NL() != 1 {
		t.Fatalf("parsed wrong: %+v", c)
	}
	if c.Gens[0].Cost.C1 != 10 {
		t.Fatalf("gencost wrong: %+v", c.Gens[0].Cost)
	}
}
