package lint

import "testing"

// deadexportMain imports internal/a from non-test code, so the analyzer
// checks that package.
const deadexportMain = `package main

import "fixture.test/m/internal/a"

func main() { a.Used() }
`

func TestDeadExportFlagsUnreferencedNames(t *testing.T) {
	m := writeModule(t, map[string]string{
		"cmd/tool/main.go": deadexportMain,
		"internal/a/a.go": `package a

func Used() {}

func DeadFunc() {}

type DeadType struct{}

var DeadVar = 1

const DeadConst = 2

func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

type List struct{ next *List }

func (l *List) Len() int { return 1 + (*List).Len(l.next) }

func unexported() {}
`,
	})
	// References from inside a declaration — Recurse calling itself, List
	// naming itself in its fields and methods — do not keep it alive.
	wantFindings(t, findings(t, m, AnalyzerDeadExport),
		"internal/a/a.go:5:[deadexport]",
		"internal/a/a.go:7:[deadexport]",
		"internal/a/a.go:9:[deadexport]",
		"internal/a/a.go:11:[deadexport]",
		"internal/a/a.go:13:[deadexport]",
		"internal/a/a.go:20:[deadexport]")
}

func TestDeadExportAcceptsOwnAndOtherPackageReferences(t *testing.T) {
	m := writeModule(t, map[string]string{
		"cmd/tool/main.go": deadexportMain,
		"internal/a/a.go": `package a

// Used is referenced from another package; Limit and Kind only from
// this one.
func Used() Kind { return Kind(Limit) }

const Limit = 3

type Kind int
`,
	})
	wantFindings(t, findings(t, m, AnalyzerDeadExport))
}

func TestDeadExportSkipsPackagesOnlyTestsImport(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/testhelp/h.go": "package testhelp\n\nfunc Check() {}\n",
		"internal/a/a.go":        "package a\n\nfunc f() {}\n",
		"internal/a/a_test.go": `package a

import (
	"testing"

	"fixture.test/m/internal/testhelp"
)

func TestF(t *testing.T) { testhelp.Check() }
`,
	})
	wantFindings(t, findings(t, m, AnalyzerDeadExport))
}

func TestDeadExportAllowlistEntrySilencesFinding(t *testing.T) {
	m := writeModule(t, map[string]string{
		"crowdlint.allow":  "# only the tests build it\ndeadexport:internal/a.Reference\n",
		"cmd/tool/main.go": deadexportMain,
		"internal/a/a.go":  "package a\n\nfunc Used() {}\n\nfunc Reference() {}\n",
	})
	wantFindings(t, findings(t, m, AnalyzerDeadExport))
}

func TestDeadExportStaleAllowlistEntryReported(t *testing.T) {
	m := writeModule(t, map[string]string{
		"crowdlint.allow":  "deadexport:internal/a.Used\ndeadexport:internal/a.Gone\n",
		"cmd/tool/main.go": deadexportMain,
		"internal/a/a.go":  "package a\n\nfunc Used() {}\n",
	})
	// Used has a real reference, so its entry matches no finding either.
	wantFindings(t, findings(t, m, AnalyzerDeadExport),
		"crowdlint.allow:1:[deadexport]",
		"crowdlint.allow:2:[deadexport]")
}
