package smartpgsim_test

// Docs coverage check (run by CI's docs job): the README system matrix
// and the RESULTS.md comparison must mention every system grid.ByName
// serves, so adding a system to the fleet without documenting it — or
// regenerating RESULTS.md from a partial benchmark run — fails fast.

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grid"
)

func mustRead(t *testing.T, path string) string {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("docs check: %v", err)
	}
	return string(buf)
}

// mentions reports whether doc contains name as a whole word (so
// "case30" does not satisfy a "case3" lookup and vice versa).
func mentions(doc, name string) bool {
	return regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).MatchString(doc)
}

// TestDocsSystemMatrixCoverage: README.md's system matrix must name
// every embedded system.
func TestDocsSystemMatrixCoverage(t *testing.T) {
	readme := mustRead(t, "README.md")
	for _, name := range grid.Names() {
		if !mentions(readme, name) {
			t.Errorf("README.md does not mention %s (system matrix out of date?)", name)
		}
	}
}

// TestResultsCoverage: RESULTS.md must carry a row for every system the
// paper-scale benchmark sweeps (the BenchmarkPaperSystems set — the
// embedded systems at and above case30).
func TestResultsCoverage(t *testing.T) {
	results := mustRead(t, "RESULTS.md")
	for _, name := range []string{"case30", "case57", "case118", "case300", "case1354"} {
		if !mentions(results, name) {
			t.Errorf("RESULTS.md does not mention %s — regenerate from a full sweep (see EXPERIMENTS.md §Paper-scale sweep)", name)
		}
	}
	if !mentions(results, "2.60") {
		t.Error("RESULTS.md does not state the paper's 2.60x claim")
	}
}

// TestEmbeddedNamesResolve: every name grid.Names lists (the list the
// docs, the benches and the fleet tests iterate) resolves through
// grid.ByName to a fresh copy of a system of that name, the list runs in
// size order, and an unknown name is an error.
func TestEmbeddedNamesResolve(t *testing.T) {
	prev := 0
	for _, name := range grid.Names() {
		c, err := grid.ByName(name)
		if err != nil {
			t.Fatalf("grid.Names lists %s but ByName fails: %v", name, err)
		}
		if c.Name != name || c.NB() <= prev {
			t.Fatalf("ByName(%s): name %s, %d buses after %d", name, c.Name, c.NB(), prev)
		}
		prev = c.NB()
		c.Buses[0].Pd++
		if again, _ := grid.ByName(name); again.Buses[0].Pd == c.Buses[0].Pd {
			t.Fatalf("ByName(%s) shares data between calls", name)
		}
	}
	if _, err := grid.ByName("case9999"); err == nil {
		t.Error("unknown system accepted")
	}
}

// TestFrozenTablesNameNoGenerator: the synthesized case tables are
// frozen data that no command regenerates, so their headers point at
// cases.go's provenance and no document sends a reader to a generator.
func TestFrozenTablesNameNoGenerator(t *testing.T) {
	for _, table := range []string{"internal/grid/cases39.go", "internal/grid/cases300.go", "internal/grid/cases1354.go"} {
		if src := mustRead(t, table); !mentions(src, "Frozen synthesis, see cases.go") || mentions(src, "regenerate") {
			t.Errorf("%s does not say it is a frozen synthesis that nothing regenerates", table)
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for _, gone := range []string{"internal/grid/gen", "internal/casegen"} {
			if mentions(mustRead(t, doc), gone) {
				t.Errorf("%s names %s, which no longer exists", doc, gone)
			}
		}
	}
}

// TestLifecycleDocsCoverage: the online model lifecycle (DESIGN.md §13)
// must stay documented end to end — the pgsimd flags in README.md, the
// closed-loop recipe in EXPERIMENTS.md, and the BENCH_lifecycle.json
// schema in PERFORMANCE.md.
func TestLifecycleDocsCoverage(t *testing.T) {
	readme := mustRead(t, "README.md")
	for _, flag := range []string{"-capture-dir", "-capture-cap", "-canary-frac", "-canary-window", "-retrain", "-retrain-epochs"} {
		if !mentions(readme, flag[1:]) {
			t.Errorf("README.md does not document the pgsimd %s flag", flag)
		}
	}
	if !mentions(readme, "pgsimd_lifecycle_") {
		t.Error("README.md does not document the pgsimd_lifecycle_* metrics")
	}
	if design := mustRead(t, "DESIGN.md"); !mentions(design, "internal/lifecycle") {
		t.Error("DESIGN.md does not cover internal/lifecycle")
	}
	if exp := mustRead(t, "EXPERIMENTS.md"); !mentions(exp, "BenchmarkLifecycle") {
		t.Error("EXPERIMENTS.md has no BenchmarkLifecycle recipe")
	}
	if perf := mustRead(t, "PERFORMANCE.md"); !mentions(perf, "BENCH_lifecycle.json") {
		t.Error("PERFORMANCE.md does not describe the BENCH_lifecycle.json schema")
	}
}

// TestCodeSizeRecorded is the code-size ratchet: the tree may not hold
// more non-test, non-data Go and assembly lines than the last row of RESULTS.md's
// "Code size" table records, so growth is always a written-down
// decision (add a row to codeSize in cmd/results and re-render) and a
// deletion that forgets its row only leaves slack. The walk counts what
// the table's `find … | xargs cat | wc -l` command counts, and also
// skips dot-directories (.git, the benchmark's .bench_build checkout).
func TestCodeSizeRecorded(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".s") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if isData, _ := filepath.Match("internal/grid/cases*.go", filepath.ToSlash(path)); isData {
			return nil
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(buf, []byte{'\n'})
		return nil
	})
	if err != nil {
		t.Fatalf("counting code lines: %v", err)
	}

	_, table, ok := strings.Cut(mustRead(t, "RESULTS.md"), "## Code size")
	if !ok {
		t.Fatal(`RESULTS.md has no "Code size" section`)
	}
	var last string
	for _, l := range strings.Split(table, "\n") {
		if strings.HasPrefix(l, "| ") {
			last = l
		}
	}
	cols := strings.Split(last, "|") // "", at, all packages, …
	if len(cols) < 3 {
		t.Fatalf("RESULTS.md code-size table has no rows (last table line %q)", last)
	}
	recorded, err := strconv.Atoi(strings.TrimSpace(cols[2]))
	if err != nil {
		t.Fatalf("RESULTS.md code-size row %q: all-packages column is not a count: %v", last, err)
	}
	if lines > recorded {
		t.Errorf("tree has %d non-test, non-data Go and assembly lines but the last RESULTS.md code-size row records %d: "+
			"add this change's row to codeSize in cmd/results and re-render (go run ./cmd/results)", lines, recorded)
	}
}

// docCommand matches a command line the docs tell a reader to run —
// `go run ./cmd/<name>`, or `/tmp/bin/<name>` where the verify notes
// build the binaries — and the arguments after it up to the end of the
// code span, a comment, a pipe or a shell operator.
var docCommand = regexp.MustCompile("(?:go run \\./cmd/|/tmp/bin/)([a-z0-9]+)([^`#|&;>]*)")

// docFlag matches a flag argument (-name, --name, -name=value) and
// captures its name; a negative number such as -0.5 is a value, not a
// flag.
var docFlag = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)

// cmdFlagDef matches a flag definition on the standard flag package:
// flag.String("name", …), flag.Var(v, "name", …), flag.IntVar(&v, "name", …).
var cmdFlagDef = regexp.MustCompile(`flag\.\w+\(\s*(?:&?\w+,\s*)?"([\w-]+)"`)

// TestDocsCommandLinesValid: every CLI line in README.md, EXPERIMENTS.md
// and the verify skill must name an existing cmd/ directory and pass
// only flags that command defines, so a deleted command or flag cannot
// live on in a recipe. A line ending in a backslash continues on the
// next.
func TestDocsCommandLinesValid(t *testing.T) {
	flagsOf := map[string]map[string]bool{} // command name → the flags its main package defines
	srcs, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		name := filepath.Base(filepath.Dir(src))
		if flagsOf[name] == nil {
			flagsOf[name] = map[string]bool{}
		}
		for _, m := range cmdFlagDef.FindAllStringSubmatch(mustRead(t, src), -1) {
			flagsOf[name][m[1]] = true
		}
	}

	checked := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		lines := strings.Split(mustRead(t, doc), "\n")
		for i := 0; i < len(lines); i++ {
			line, at := lines[i], i+1
			for strings.HasSuffix(strings.TrimSpace(line), `\`) && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(strings.TrimSpace(line), `\`) + " " + lines[i]
			}
			for _, m := range docCommand.FindAllStringSubmatch(line, -1) {
				checked++
				name := m[1]
				fl, ok := flagsOf[name]
				if !ok {
					t.Errorf("%s:%d runs cmd/%s, which does not exist", doc, at, name)
					continue
				}
				for _, arg := range strings.Fields(m[2]) {
					if f := docFlag.FindStringSubmatch(arg); f != nil && !fl[f[1]] {
						t.Errorf("%s:%d passes -%s to cmd/%s, which defines no such flag", doc, at, f[1], name)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no command lines in the docs; the pattern is out of date")
	}
}

// apiAllowlist names the exported internal/ functions and methods that
// no program's source names, each with the reason it stays: an
// interface method the standard library calls, a seam a roadmap item
// keeps, or a reference that another package's tests or the root
// benchmark harness compare against (a reference one package's tests
// use lives in that package's _test.go files instead). Keys are
// "<package under internal/>.<func>" or "<package>.<type>.<method>".
var apiAllowlist = map[string]string{
	"batch.TaskError.Unwrap": "error unwrapping, called by errors.Is and errors.As",
	"sparse.colSeg.Less":     "sort.Interface, called by sort.Stable",
	"sparse.colSeg.Swap":     "sort.Interface, called by sort.Stable",
	"sparse.colSegC.Less":    "sort.Interface, called by sort.Stable",
	"sparse.colSegC.Swap":    "sort.Interface, called by sort.Stable",

	"lifecycle.LoadCapture":             "ROADMAP item 10 decides internal/lifecycle as a whole",
	"lifecycle.Detector.Fired":          "ROADMAP item 10 decides internal/lifecycle as a whole",
	"lifecycle.Detector.FiredAtWindow":  "ROADMAP item 10 decides internal/lifecycle as a whole",
	"lifecycle.NewFakeClock":            "ROADMAP item 10 decides internal/lifecycle as a whole",
	"lifecycle.FakeClock.Advance":       "ROADMAP item 10 decides internal/lifecycle as a whole",
	"lifecycle.Manager.BeginCanaryWith": "ROADMAP item 10 decides internal/lifecycle as a whole",
	"serve.Server.SwapModel":            "the hot swap item 10 keeps either way; TestHotSwapNoDroppedOrMixedResponses and BenchmarkLifecycle drive it",
	"mips.Stepper.Assemble":             "item 5's seam between assemble and factor; BenchmarkNewtonSystem and the root harness meter it",
	"grid.MakeSbus":                     "the bus-injection reference the grid and opf tests compare against",
	"opf.OPF.KKTSymbolic":               "the production KKT analysis opf's ordering tests and the root harness (item 8(e)) measure",
	"sparse.LDLSymbolic.FactorInto":     "the CSC-input factorization of the sparse tests and the root harness (item 8(e))",
	"sparse.LDLSymbolic.Flops":          "analysis size reported by opf's ordering tests, the sparse fleet pin and the root harness (item 8(e))",
	"sparse.LDLSymbolic.PatternNNZ":     "analysis size reported by opf's ordering tests and the root harness (item 8(e))",
	"scopf.ScreenNaive":                 "the per-scenario reference the scopf tests and BenchmarkScreen pin the engine to (items 6(c), 8(e))",
	"scopf.MatchNaive":                  "compares the engine with ScreenNaive in the scopf tests and BenchmarkScreen (items 6(c), 8(e))",
	"scopf.BuildScenarios":              "scenario lists for the scopf tests and BenchmarkScreen (items 6(c), 8(e))",
	"scopf.BuildGenScenarios":           "scenario lists for the scopf tests and BenchmarkScreen (items 6(c), 8(e))",
	"scopf.BuildPairScenarios":          "scenario lists for the scopf tests and BenchmarkScreen (items 6(c), 8(e))",
}

// TestProductionAPIHasCallers: every exported function and method
// declared in a non-test internal/ file must be named in some non-test
// file under cmd/, examples/, internal/ or bench/, or sit on
// apiAllowlist with its reason, so an API that only its own tests call
// is deleted or moved into those tests rather than kept. The check is by
// name: a dead function that shares its name with a live one, or whose
// only caller is itself dead, passes it (.claude/skills/verify/SKILL.md
// gives the linker audit that sees both). An allowlist entry that is no
// longer declared, or whose name a program now uses, fails too.
func TestProductionAPIHasCallers(t *testing.T) {
	type decl struct{ key, name, at string }
	var decls []decl
	used := map[string]bool{} // identifiers named outside their own declaration
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples", "internal", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			pkg, _ := filepath.Rel("internal", filepath.Dir(path))
			for _, dl := range f.Decls {
				fd, ok := dl.(*ast.FuncDecl)
				if !ok || root != "internal" || !fd.Name.IsExported() {
					continue
				}
				key := filepath.ToSlash(pkg) + "."
				if fd.Recv != nil {
					typ := fd.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					switch g := typ.(type) {
					case *ast.IndexExpr:
						typ = g.X
					case *ast.IndexListExpr:
						typ = g.X
					}
					key += typ.(*ast.Ident).Name + "."
				}
				decls = append(decls, decl{key + fd.Name.Name, fd.Name.Name, fset.Position(fd.Pos()).String()})
			}
			var mark func(ast.Node) bool
			mark = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl: // every identifier in it but the declared name
					if n.Recv != nil {
						ast.Inspect(n.Recv, mark)
					}
					ast.Inspect(n.Type, mark)
					if n.Body != nil {
						ast.Inspect(n.Body, mark)
					}
					return false
				case *ast.Ident:
					used[n.Name] = true
				}
				return true
			}
			ast.Inspect(f, mark)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if _, ok := apiAllowlist[d.key]; !ok && !used[d.name] {
			t.Errorf("%s: %s is named by no program or production file: delete it, move it into the tests that use it, or allowlist it with a reason", d.at, d.key)
		}
	}
	for key := range apiAllowlist {
		name := key[strings.LastIndex(key, ".")+1:]
		switch {
		case !declared[key]:
			t.Errorf("apiAllowlist entry %s is not declared in internal/ any more: drop it", key)
		case used[name]:
			t.Errorf("apiAllowlist entry %s is named by production code now: drop it", key)
		}
	}
}
