// Package grid models AC power systems in the Matpower convention: buses,
// generators, branches on a common MVA base, the bus admittance matrices
// built from them, and the first- and second-order derivatives of power
// injections and branch flows that the AC-OPF solver and the
// physics-informed training losses both consume.
//
// Case.Clone and Case.ScaleLoads are the instance-derivation primitives
// of the ±10 % load-perturbation workload: every sample of a sweep and
// every serving-daemon request is a scaled clone of a base case, leaving
// the admittance structure shared (see opf.Rebind).
//
// The package also embeds the paper's evaluation fleet, Case5 through
// Case300, and the beyond-paper Case1354, served by name through ByName,
// with provenance, units and the rated-branch convention documented
// once in cases.go.
package grid

import (
	"fmt"
	"math"
)

// BusType enumerates the classical power-flow bus categories.
type BusType int

const (
	// PQ buses have fixed load and no voltage regulation.
	PQ BusType = 1
	// PV buses hold voltage magnitude via a generator.
	PV BusType = 2
	// Ref is the slack/reference bus fixing the angle datum.
	Ref BusType = 3
)

// Bus is one network node. Powers are in MW/MVAr, voltages in per unit,
// angles in degrees (matching Matpower case files); internal computations
// convert to per-unit and radians.
type Bus struct {
	ID     int     // external bus number
	Type   BusType // PQ, PV or Ref
	Pd, Qd float64 // load, MW / MVAr
	Gs, Bs float64 // shunt conductance/susceptance, MW/MVAr at V=1 pu
	Vm     float64 // initial voltage magnitude, pu
	Va     float64 // initial voltage angle, degrees
	BaseKV float64
	Vmax   float64 // pu
	Vmin   float64 // pu
}

// Gen is a generator (or dispatchable injection) at a bus.
type Gen struct {
	Bus        int     // external bus number
	Pg, Qg     float64 // initial dispatch, MW / MVAr
	Qmax, Qmin float64 // MVAr limits
	Vg         float64 // voltage setpoint, pu
	Pmax, Pmin float64 // MW limits
	Status     bool
	Cost       PolyCost
}

// PolyCost is a polynomial generation cost c2·P² + c1·P + c0 with P in MW
// and cost in $/hr.
type PolyCost struct {
	C2, C1, C0 float64
}

// Eval returns the cost at p MW.
func (c PolyCost) Eval(p float64) float64 { return (c.C2*p+c.C1)*p + c.C0 }

// Deriv returns d cost / dP at p MW.
func (c PolyCost) Deriv(p float64) float64 { return 2*c.C2*p + c.C1 }

// Deriv2 returns d² cost / dP².
func (c PolyCost) Deriv2() float64 { return 2 * c.C2 }

// Branch is a transmission line or transformer between two buses.
type Branch struct {
	From, To int     // external bus numbers
	R, X     float64 // series impedance, pu
	B        float64 // total line charging susceptance, pu
	RateA    float64 // MVA long-term rating; 0 means unlimited
	Ratio    float64 // transformer tap ratio; 0 means 1 (a line)
	Shift    float64 // phase-shift angle, degrees
	Status   bool
}

// Case is a complete power-flow/OPF case.
type Case struct {
	Name     string
	BaseMVA  float64
	Buses    []Bus
	Gens     []Gen
	Branches []Branch

	busIdx map[int]int // external ID -> slice index, built by Normalize
}

// NB returns the number of buses.
func (c *Case) NB() int { return len(c.Buses) }

// NG returns the number of in-service generators.
func (c *Case) NG() int {
	n := 0
	for _, g := range c.Gens {
		if g.Status {
			n++
		}
	}
	return n
}

// NL returns the number of in-service branches.
func (c *Case) NL() int {
	n := 0
	for _, b := range c.Branches {
		if b.Status {
			n++
		}
	}
	return n
}

// Normalize validates the case and builds the internal bus-ID index. It
// must be called (directly or via the loaders in this package) before any
// matrix construction.
func (c *Case) Normalize() error {
	if c.BaseMVA <= 0 {
		return fmt.Errorf("grid: case %q: BaseMVA must be positive, got %v", c.Name, c.BaseMVA)
	}
	if len(c.Buses) == 0 {
		return fmt.Errorf("grid: case %q has no buses", c.Name)
	}
	c.busIdx = make(map[int]int, len(c.Buses))
	refSeen := false
	for i, b := range c.Buses {
		if _, dup := c.busIdx[b.ID]; dup {
			return fmt.Errorf("grid: case %q: duplicate bus ID %d", c.Name, b.ID)
		}
		c.busIdx[b.ID] = i
		if b.Type == Ref {
			refSeen = true
		}
		if b.Vmax < b.Vmin {
			return fmt.Errorf("grid: case %q: bus %d has Vmax < Vmin", c.Name, b.ID)
		}
	}
	if !refSeen {
		return fmt.Errorf("grid: case %q has no reference bus", c.Name)
	}
	for _, g := range c.Gens {
		if _, ok := c.busIdx[g.Bus]; !ok {
			return fmt.Errorf("grid: case %q: generator at unknown bus %d", c.Name, g.Bus)
		}
		if g.Pmax < g.Pmin || g.Qmax < g.Qmin {
			return fmt.Errorf("grid: case %q: generator at bus %d has inverted limits", c.Name, g.Bus)
		}
	}
	for i, br := range c.Branches {
		if _, ok := c.busIdx[br.From]; !ok {
			return fmt.Errorf("grid: case %q: branch %d from unknown bus %d", c.Name, i, br.From)
		}
		if _, ok := c.busIdx[br.To]; !ok {
			return fmt.Errorf("grid: case %q: branch %d to unknown bus %d", c.Name, i, br.To)
		}
		if br.Status && br.R == 0 && br.X == 0 {
			return fmt.Errorf("grid: case %q: branch %d has zero impedance", c.Name, i)
		}
	}
	return nil
}

// BusIndex returns the slice index of the bus with external ID id.
func (c *Case) BusIndex(id int) int {
	i, ok := c.busIdx[id]
	if !ok {
		panic(fmt.Sprintf("grid: unknown bus ID %d (did you call Normalize?)", id))
	}
	return i
}

// RefIndex returns the slice index of the reference bus.
func (c *Case) RefIndex() int {
	for i, b := range c.Buses {
		if b.Type == Ref {
			return i
		}
	}
	panic("grid: no reference bus")
}

// ActiveGens returns the in-service generators in order.
func (c *Case) ActiveGens() []Gen {
	out := make([]Gen, 0, len(c.Gens))
	for _, g := range c.Gens {
		if g.Status {
			out = append(out, g)
		}
	}
	return out
}

// ActiveBranches returns the in-service branches in order.
func (c *Case) ActiveBranches() []Branch {
	out := make([]Branch, 0, len(c.Branches))
	for _, b := range c.Branches {
		if b.Status {
			out = append(out, b)
		}
	}
	return out
}

// Clone returns a deep copy of the case (Normalize state included).
func (c *Case) Clone() *Case {
	cp := &Case{
		Name:     c.Name,
		BaseMVA:  c.BaseMVA,
		Buses:    append([]Bus(nil), c.Buses...),
		Gens:     append([]Gen(nil), c.Gens...),
		Branches: append([]Branch(nil), c.Branches...),
	}
	if c.busIdx != nil {
		cp.busIdx = make(map[int]int, len(c.busIdx))
		for k, v := range c.busIdx {
			cp.busIdx[k] = v
		}
	}
	return cp
}

// ScaleLoads multiplies every bus load by the per-bus factors (len NB)
// in place. It is the workload knob used for ±10 % load sampling.
func (c *Case) ScaleLoads(factors []float64) {
	if len(factors) != len(c.Buses) {
		panic("grid: ScaleLoads factor length mismatch")
	}
	for i := range c.Buses {
		c.Buses[i].Pd *= factors[i]
		c.Buses[i].Qd *= factors[i]
	}
}

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }
