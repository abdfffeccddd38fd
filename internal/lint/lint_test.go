package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a fixture source tree in t.TempDir() and
// loads it. A go.mod for "fixture.test/m" is added unless the fixture
// provides its own.
func writeModule(t *testing.T, files map[string]string) *Module {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module fixture.test/m\n\ngo 1.22\n"
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return m
}

// findings runs the analyzers and renders each surviving diagnostic as
// "relpath:line:[analyzer]" for compact assertions.
func findings(t *testing.T, m *Module, analyzers ...*Analyzer) []string {
	t.Helper()
	var out []string
	for _, d := range m.Run(analyzers) {
		rel, err := filepath.Rel(m.Root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		out = append(out, fmt.Sprintf("%s:%d:[%s]", filepath.ToSlash(rel), d.Pos.Line, d.Analyzer))
	}
	return out
}

func wantFindings(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d finding(s) %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLoadTypeChecksAcrossPackages(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/graph/g.go": "package graph\n\ntype Bipartite struct{ N int }\n",
		"internal/core/c.go": "package core\n\nimport \"fixture.test/m/internal/graph\"\n\n" +
			"func Nodes(g *graph.Bipartite) int { return g.N }\n",
	})
	if len(m.Packages) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(m.Packages))
	}
	for _, p := range m.Packages {
		if p.Types == nil || p.Info == nil {
			t.Fatalf("package %s missing type info", p.ImportPath)
		}
	}
}

func TestLoadRejectsTypeErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixture.test/m\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte("package m\n\nfunc f() int { return \"not an int\" }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a module that does not type-check")
	}
}

func TestLoadRequiresGoMod(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("Load accepted a directory without go.mod")
	}
}

func TestSuppressionRequiresReason(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/stats/s.go": `package stats

import "time"

func Stamp() time.Time {
	//lint:ignore determinism
	return time.Now()
}
`,
	})
	got := findings(t, m, AnalyzerDeterminism)
	// The reasonless directive does not suppress, and is itself reported.
	wantFindings(t, got,
		"internal/stats/s.go:6:[lint]",
		"internal/stats/s.go:7:[determinism]")
}

func TestSuppressionForOtherAnalyzerDoesNotApply(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/stats/s.go": `package stats

import "time"

func Stamp() time.Time {
	//lint:ignore errwrap the wrong analyzer name must not silence determinism
	return time.Now()
}
`,
	})
	got := findings(t, m, AnalyzerDeterminism)
	wantFindings(t, got, "internal/stats/s.go:7:[determinism]")
}

// TestSuppressionUnknownAnalyzerIsMalformed: a directive naming no
// registered analyzer (a retired one, a typo) is a finding that lists
// the analyzers it could name, whatever set runs.
func TestSuppressionUnknownAnalyzerIsMalformed(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/stats/s.go": `package stats

func Buffer(n int) chan int {
	//lint:ignore chandisc the capacity is the caller's knob
	return make(chan int, n)
}
`,
	})
	got := m.Run([]*Analyzer{AnalyzerDeterminism})
	wantFindings(t, findings(t, m, AnalyzerDeterminism), "internal/stats/s.go:4:[lint]")
	if want := `unknown analyzer "chandisc" (known: determinism, ctxthread, errwrap, binlayout, deadexport, lockdisc)`; !strings.Contains(got[0].Message, want) {
		t.Errorf("message = %q, want it to contain %q", got[0].Message, want)
	}
}

// TestSuppressionStaleDirectiveReported: a directive whose analyzer ran
// and found nothing on its line or the next is stale; one that absorbs
// a finding is not, and one for an analyzer outside the run is not
// judged.
func TestSuppressionStaleDirectiveReported(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/stats/s.go": `package stats

import "time"

func Stamp() time.Time {
	//lint:ignore determinism demo output only
	return time.Now()
}

func Zero() time.Time {
	//lint:ignore determinism nothing here reads a clock any more
	return time.Time{}
}

func Other() int {
	//lint:ignore errwrap errwrap does not run in this test
	return 0
}
`,
	})
	got := m.Run([]*Analyzer{AnalyzerDeterminism})
	wantFindings(t, findings(t, m, AnalyzerDeterminism), "internal/stats/s.go:11:[determinism]")
	if !strings.Contains(got[0].Message, "stale suppression") {
		t.Errorf("message = %q, want the stale-suppression wording", got[0].Message)
	}
}

func TestDiagnosticString(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/stats/s.go": "package stats\n\nimport \"os\"\n\nfunc Env() string { return os.Getenv(\"X\") }\n",
	})
	ds := m.Run([]*Analyzer{AnalyzerDeterminism})
	if len(ds) != 1 {
		t.Fatalf("got %d findings, want 1", len(ds))
	}
	s := ds[0].String()
	if !strings.Contains(s, "s.go:5:") || !strings.Contains(s, "[determinism]") {
		t.Errorf("Diagnostic.String() = %q, want file:line and analyzer tag", s)
	}
}
