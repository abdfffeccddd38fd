package lint

import (
	"strings"
	"testing"
)

// allowFixture is a module with one real deadexport finding (a.Reference)
// and one real errwrap finding (a.Status), plus the given allowlist.
func allowFixture(t *testing.T, allow string) *Module {
	t.Helper()
	return writeModule(t, map[string]string{
		"crowdlint.allow":  allow,
		"cmd/tool/main.go": deadexportMain,
		"internal/a/a.go": "package a\n\nimport \"fmt\"\n\nfunc Used() {}\n\nfunc Reference() {}\n\n" +
			"func status(code int, err error) error { return fmt.Errorf(\"status %d: %v\", code, err) }\n",
	})
}

// TestAllowlistMalformedLines: two words, a missing analyzer prefix and
// an unknown analyzer are each a finding; the last names every analyzer
// that may own entries. Trailing comments and blank lines are fine.
func TestAllowlistMalformedLines(t *testing.T) {
	m := allowFixture(t, `deadexport:internal/a.Reference   # only tests call it
two words on a line

internal/a.Reference
goleak:internal/a.status
`)
	wantFindings(t, findings(t, m, AnalyzerDeadExport),
		"crowdlint.allow:2:[lint]", "crowdlint.allow:4:[lint]", "crowdlint.allow:5:[lint]")
	for _, d := range m.Run([]*Analyzer{AnalyzerDeadExport}) {
		if d.Pos.Line == 5 && !strings.Contains(d.Message, "(known: deadexport, errwrap)") {
			t.Errorf("unknown-analyzer message = %q, want every allowlist analyzer named", d.Message)
		}
	}
}

// TestAllowlistStaleEntryReported: each analyzer reports its own entries
// that match no finding, and only those.
func TestAllowlistStaleEntryReported(t *testing.T) {
	m := allowFixture(t, `deadexport:internal/a.Reference
deadexport:internal/a.Gone
errwrap:internal/a.status
errwrap:internal/a.Used
`)
	wantFindings(t, findings(t, m, AnalyzerDeadExport, AnalyzerErrWrap),
		"crowdlint.allow:2:[deadexport]", "crowdlint.allow:4:[errwrap]")
	for _, d := range m.Run([]*Analyzer{AnalyzerDeadExport}) {
		if !strings.Contains(d.Message, "stale allowlist entry internal/a.Gone") {
			t.Errorf("stale message = %q, want the entry named", d.Message)
		}
	}
}
