package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// viewonlyFixture is a module with one real viewonly finding, absorbed
// by an allowlist entry, plus whatever extra allow lines a test wants.
func viewonlyFixture(t *testing.T, allow string) *Module {
	t.Helper()
	return writeModule(t, map[string]string{
		"crowdlint.allow":     allow,
		"internal/graph/g.go": "package graph\n\ntype Bipartite struct{ N int }\n",
		"internal/core/c.go": "package core\n\nimport \"fixture.test/m/internal/graph\"\n\n" +
			"func Build() *graph.Bipartite { return &graph.Bipartite{} }\n",
	})
}

// TestAllowlistMalformedLines: two words, a missing analyzer prefix and
// an unknown analyzer are each a finding; the last names every analyzer
// that may own entries.
func TestAllowlistMalformedLines(t *testing.T) {
	m := viewonlyFixture(t, `viewonly:internal/core.Build
two words on a line
internal/core.Build
nosuch:internal/core.Build
`)
	got := findings(t, m, AnalyzerViewOnly)
	wantFindings(t, got, "crowdlint.allow:2:[lint]", "crowdlint.allow:3:[lint]", "crowdlint.allow:4:[lint]")
	for _, d := range m.Run([]*Analyzer{AnalyzerViewOnly}) {
		if d.Pos.Line == 4 && !strings.Contains(d.Message, "(known: deadexport, errwrap, goleak, viewonly)") {
			t.Errorf("unknown-analyzer message = %q, want every allowlist analyzer named", d.Message)
		}
	}
}

func TestAllowlistStaleEntryReported(t *testing.T) {
	m := viewonlyFixture(t, `viewonly:internal/core.Build
viewonly:internal/core.Gone
`)
	wantFindings(t, findings(t, m, AnalyzerViewOnly), "crowdlint.allow:2:[viewonly]")
}

func TestRewriteAllowlistDropsStaleSortsAndKeepsComments(t *testing.T) {
	m := viewonlyFixture(t, `# header: the exception list.

# Build is the blessed façade constructor.
viewonly:internal/core.Build   # trailing note
viewonly:internal/core.Gone
goleak:internal/core.Gone
`)
	kept, dropped, err := RewriteAllowlist(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"viewonly:internal/core.Build"}; !equalStrings(kept, want) {
		t.Fatalf("kept = %v, want %v", kept, want)
	}
	if want := []string{"goleak:internal/core.Gone", "viewonly:internal/core.Gone"}; !equalStrings(dropped, want) {
		t.Fatalf("dropped = %v, want %v", dropped, want)
	}
	data, err := os.ReadFile(filepath.Join(m.Root, AllowlistFile))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.HasPrefix(got, "# header: the exception list.\n") {
		t.Fatalf("header not preserved:\n%s", got)
	}
	if !strings.Contains(got, "# Build is the blessed façade constructor.\nviewonly:internal/core.Build   # trailing note\n") {
		t.Fatalf("entry comment or trailing note lost:\n%s", got)
	}
	if strings.Contains(got, "Gone") {
		t.Fatalf("stale entries survived the rewrite:\n%s", got)
	}
	// The rewrite is observed on the next Run: no stale findings remain.
	wantFindings(t, findings(t, m, AnalyzerViewOnly, AnalyzerGoLeak))
}

func TestRewriteAllowlistIsIdempotentAndDeterministic(t *testing.T) {
	m := writeModule(t, map[string]string{
		"crowdlint.allow": `# header

# why the builder is exempt
viewonly:internal/core.Build

# why the status error is not wrapped
errwrap:internal/core.Status
`,
		"internal/graph/g.go": "package graph\n\ntype Bipartite struct{ N int }\n",
		"internal/core/c.go": "package core\n\nimport (\n\t\"fmt\"\n\n\t\"fixture.test/m/internal/graph\"\n)\n\n" +
			"func Build() *graph.Bipartite { return &graph.Bipartite{} }\n\n" +
			"func Status(code int, err error) error { return fmt.Errorf(\"status %d: %v\", code, err) }\n",
	})
	if _, _, err := RewriteAllowlist(m); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(m.Root, AllowlistFile))
	if err != nil {
		t.Fatal(err)
	}
	// A second run in a fresh process re-parses what the first wrote.
	m, err = Load(m.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RewriteAllowlist(m); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(m.Root, AllowlistFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), "# why the status error is not wrapped\nerrwrap:internal/core.Status\n\n# why the builder is exempt\nviewonly:internal/core.Build\n") {
		t.Fatalf("entries not sorted with their comments, one blank line apart:\n%s", first)
	}
	if string(first) != string(second) {
		t.Fatalf("rewrite not idempotent:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

func TestRewriteAllowlistNoFileIsNoop(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/a/a.go": "package a\n\nfunc F() {}\n",
	})
	kept, dropped, err := RewriteAllowlist(m)
	if err != nil || kept != nil || dropped != nil {
		t.Fatalf("RewriteAllowlist on missing file = (%v, %v, %v), want nil/nil/nil", kept, dropped, err)
	}
	if _, statErr := os.Stat(filepath.Join(m.Root, AllowlistFile)); !os.IsNotExist(statErr) {
		t.Fatalf("rewrite conjured an allowlist file: %v", statErr)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
