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
