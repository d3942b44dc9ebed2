package smartpgsim_test

// Docs coverage check (run by CI's docs job): the README system matrix
// and the RESULTS.md comparison must mention every system casegen.Paper
// exposes, so adding a system to the fleet without documenting it — or
// regenerating RESULTS.md from a partial benchmark run — fails fast.

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/casegen"
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

// TestDocsSystemMatrixCoverage: README.md must name every paper system
// (the "Embedded systems" matrix plus the synthesized case39 row).
func TestDocsSystemMatrixCoverage(t *testing.T) {
	readme := mustRead(t, "README.md")
	for _, name := range casegen.SensitivitySystemNames() {
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

// TestEmbeddedNamesResolve: every name EmbeddedNames advertises must
// resolve through Paper (the docs and benches iterate this list).
func TestEmbeddedNamesResolve(t *testing.T) {
	for _, name := range casegen.EmbeddedNames() {
		if _, err := casegen.Paper(name); err != nil {
			t.Errorf("EmbeddedNames lists %s but Paper fails: %v", name, err)
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
// more non-test, non-data Go lines than the last row of RESULTS.md's
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
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
		t.Fatalf("counting Go lines: %v", err)
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
		t.Errorf("tree has %d non-test, non-data Go lines but the last RESULTS.md code-size row records %d: "+
			"add this change's row to codeSize in cmd/results and re-render (go run ./cmd/results)", lines, recorded)
	}
}
