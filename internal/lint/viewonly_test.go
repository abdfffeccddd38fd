package lint

import (
	"strings"
	"testing"
)

const viewonlyGraphFixture = `package graph

type Bipartite struct{ n int }

type BipartiteView interface{ NumLeft() int }

func NewBipartite() *Bipartite { return &Bipartite{} }
`

func TestViewOnlyCatchesBuilderSignatures(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/graph/g.go": viewonlyGraphFixture,
		"internal/core/c.go": `package core

import "fixture.test/m/internal/graph"

func Build() *graph.Bipartite {
	return graph.NewBipartite()
}

func filter(b *graph.Bipartite) {}

type Runner struct{}

func (Runner) Use(g *graph.Bipartite) {}

func Batch(gs map[string][]*graph.Bipartite) {}
`,
	})
	got := findings(t, m, AnalyzerViewOnly)
	wantFindings(t, got,
		"internal/core/c.go:5:[viewonly]",
		"internal/core/c.go:13:[viewonly]",
		"internal/core/c.go:15:[viewonly]")
}

func TestViewOnlyExemptsGraphPackageAndViews(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/graph/g.go": viewonlyGraphFixture,
		"internal/core/c.go": `package core

import "fixture.test/m/internal/graph"

func Stats(v graph.BipartiteView) int {
	return v.NumLeft()
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerViewOnly))
}

func TestViewOnlyAllowlist(t *testing.T) {
	files := map[string]string{
		"internal/graph/g.go": viewonlyGraphFixture,
		"internal/core/c.go": `package core

import "fixture.test/m/internal/graph"

func Build() *graph.Bipartite {
	return graph.NewBipartite()
}
`,
	}

	// Without the allowlist the façade is a finding...
	m := writeModule(t, copyFiles(files))
	wantFindings(t, findings(t, m, AnalyzerViewOnly), "internal/core/c.go:5:[viewonly]")

	// ...with it, the finding is excused.
	files[AllowlistFile] = "# façade constructor\nviewonly:internal/core.Build\n"
	m = writeModule(t, copyFiles(files))
	wantFindings(t, findings(t, m, AnalyzerViewOnly))

	// A stale entry is itself a finding, so the list stays minimal.
	files[AllowlistFile] = "viewonly:internal/core.Build\nviewonly:internal/core.Gone\n"
	m = writeModule(t, copyFiles(files))
	got := m.Run([]*Analyzer{AnalyzerViewOnly})
	if len(got) != 1 {
		t.Fatalf("got %d finding(s) %v, want 1 stale entry", len(got), got)
	}
	if !strings.Contains(got[0].Message, "stale allowlist entry internal/core.Gone") {
		t.Errorf("message = %q, want stale-entry report", got[0].Message)
	}
	if got[0].Pos.Line != 2 {
		t.Errorf("stale entry reported at line %d of the allowlist, want 2", got[0].Pos.Line)
	}
}

func copyFiles(files map[string]string) map[string]string {
	out := make(map[string]string, len(files))
	for k, v := range files {
		out[k] = v
	}
	return out
}
