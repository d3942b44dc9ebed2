// Command gen prints an embedded synthesized case table
// (internal/grid/cases300.go, cases1354.go): casegen.Generate of the
// selected profile — a certified synthesis whose stored operating point
// is its unrated OPF optimum — written out as static data (the original
// IEEE and PEGASE case files are not redistributable). The output is
// deterministic for a fixed casegen algorithm; the point of freezing it
// is that the embedded system can no longer drift when the generator
// evolves. Branch ratings are NOT emitted — the Case constructors
// derive them with grid.RateBranches from the stored operating point,
// the same convention casegen certifies with.
//
// The committed tables are frozen and this command no longer reproduces
// them: its case300 and case1354 output is byte for byte what the
// generator printed while casegen certified with a Newton power flow and
// this command re-anchored at the OPF optimum itself, and that output
// already differed from both committed tables in every bus row. Nothing
// regenerates them.
//
// Usage (from the repository root):
//
//	go run ./internal/grid/gen | gofmt
//	go run ./internal/grid/gen -case case1354 | gofmt
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/casegen"
)

// profiles describes each emittable case: where its spec lives and the
// doc comment of its constructor.
var profiles = map[string]struct {
	spec func() casegen.Spec
	doc  string
}{
	"case300": {
		spec: func() casegen.Spec { return casegen.PaperSpecs()["case300"] },
		doc: "the embedded 300-bus evaluation system (300 buses,\n" +
			"// 69 generators, 411 branches)",
	},
	"case1354": {
		spec: func() casegen.Spec { return casegen.BeyondPaperSpecs()["case1354"] },
		doc: "the embedded 1354-bus beyond-paper scaling\n" +
			"// system (1354 buses, 260 generators, 1991 branches; the PEGASE\n" +
			"// 1354-bus element counts)",
	},
}

func main() {
	log.SetFlags(0)
	name := flag.String("case", "case300", "which embedded case to emit (case300, case1354)")
	flag.Parse()
	prof, ok := profiles[*name]
	if !ok {
		log.Fatalf("unknown -case %q", *name)
	}
	spec := prof.spec()
	spec.RatedBranches = 0 // ratings derived by RateBranches at load time
	c, err := casegen.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}

	n := *name
	fmt.Println("package grid")
	fmt.Println()
	fmt.Println("// Code generated by internal/grid/gen (certified casegen synthesis);")
	fmt.Println("// see cases.go for provenance and the rated-branch convention.")
	fmt.Printf("// DO NOT EDIT by hand — regenerate with:\n")
	fmt.Printf("// go run ./internal/grid/gen -case %s > internal/grid/cases%s.go\n", n, n[4:])
	fmt.Println()
	fmt.Printf("// %s returns %s\n", constructor(n), prof.doc)
	fmt.Println("// with derived branch ratings on every line (RateBranches). The")
	fmt.Println("// stored Vm/Va/Pg/Qg columns are the certified solved operating")
	fmt.Println("// point.")
	fmt.Printf("func %s() *Case {\n", constructor(n))
	fmt.Printf("\tc := caseFromTables(%q, 138, 1.06, 0.94, nil,\n", n)
	fmt.Printf("\t\t%sBuses, %sGens, %sBranches)\n", n, n, n)
	fmt.Println("\tRateBranches(c)")
	fmt.Println("\treturn c")
	fmt.Println("}")
	fmt.Println()
	fmt.Printf("var %sBuses = []busRow{\n", n)
	fmt.Println("\t// ID, type, Pd, Qd, Gs, Bs, Vm, Va")
	for _, b := range c.Buses {
		fmt.Printf("\t{%d, %d, %s, %s, %s, %s, %s, %s},\n",
			b.ID, int(b.Type), g(b.Pd), g(b.Qd), g(b.Gs), g(b.Bs), g(b.Vm), g(b.Va))
	}
	fmt.Println("}")
	fmt.Println()
	fmt.Printf("var %sGens = []genRow{\n", n)
	fmt.Println("\t// bus, Pg, Qg, Qmax, Qmin, Vg, Pmax, c2, c1, c0")
	for _, gen := range c.Gens {
		fmt.Printf("\t{%d, %s, %s, %s, %s, %s, %s, %s, %s, %s},\n",
			gen.Bus, g(gen.Pg), g(gen.Qg), g(gen.Qmax), g(gen.Qmin), g(gen.Vg),
			g(gen.Pmax), g(gen.Cost.C2), g(gen.Cost.C1), g(gen.Cost.C0))
	}
	fmt.Println("}")
	fmt.Println()
	fmt.Printf("var %sBranches = []branchRow{\n", n)
	fmt.Println("\t// from, to, R, X, B, ratio")
	for _, br := range c.Branches {
		fmt.Printf("\t{%d, %d, %s, %s, %s, %s},\n",
			br.From, br.To, g(br.R), g(br.X), g(br.B), g(br.Ratio))
	}
	fmt.Println("}")
}

// constructor maps "case300" to "Case300".
func constructor(name string) string {
	return "C" + name[1:]
}

// g formats a float with the shortest representation that round-trips
// exactly, so the frozen data is bit-identical to the generated case.
func g(v float64) string {
	return fmt.Sprintf("%v", v)
}
