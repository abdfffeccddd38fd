package lint

import "testing"

func TestErrWrapCatchesLossyWrapsAndDiscards(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/metrics/m.go": `package metrics

import "fmt"

func Wrap(err error) error {
	return fmt.Errorf("load: %v", err)
}

func fire() error { return nil }

func Launch() {
	_ = fire()
}
`,
	})
	got := findings(t, m, AnalyzerErrWrap)
	wantFindings(t, got,
		"internal/metrics/m.go:6:[errwrap]",
		"internal/metrics/m.go:12:[errwrap]")
}

func TestErrWrapAcceptsWrappedAndHandledErrors(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/metrics/m.go": `package metrics

import "fmt"

func Wrap(err error) error {
	return fmt.Errorf("load shard %d: %w", 3, err)
}

func count() (int, error) { return 0, nil }

func Use() int {
	n, _ := count()
	return n
}

func Describe(name string) string {
	return fmt.Sprintf("table %s", name)
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerErrWrap))
}

func TestErrWrapVerbBindingIsPositional(t *testing.T) {
	// The error operand is bound to its own verb: a %v for an earlier
	// string argument must not mask (or misreport) the %w check.
	m := writeModule(t, map[string]string{
		"internal/metrics/m.go": `package metrics

import "fmt"

func Wrap(ns string, err error) error {
	return fmt.Errorf("scan %v: %s", ns, err)
}
`,
	})
	got := findings(t, m, AnalyzerErrWrap)
	wantFindings(t, got, "internal/metrics/m.go:6:[errwrap]")
}

func TestErrWrapSuppressionWithReason(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/metrics/m.go": `package metrics

func fire() error { return nil }

func Launch() {
	//lint:ignore errwrap best-effort cache warm; a miss is recomputed on demand
	_ = fire()
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerErrWrap))
}

// TestErrWrapAllowlistExemptsOneFunction: an errwrap allowlist entry
// silences the named function only, and goes stale with its finding.
func TestErrWrapAllowlistExemptsOneFunction(t *testing.T) {
	src := `package metrics

import "fmt"

func Status(code int, err error) error {
	return fmt.Errorf("status %d: %v", code, err)
}

func Other(err error) error {
	return fmt.Errorf("other: %v", err)
}
`
	m := writeModule(t, map[string]string{
		"crowdlint.allow":       "errwrap:internal/metrics.Status\n",
		"internal/metrics/m.go": src,
	})
	wantFindings(t, findings(t, m, AnalyzerErrWrap), "internal/metrics/m.go:10:[errwrap]")

	m = writeModule(t, map[string]string{
		"crowdlint.allow":       "errwrap:internal/metrics.Gone\n",
		"internal/metrics/m.go": "package metrics\n",
	})
	wantFindings(t, findings(t, m, AnalyzerErrWrap), "crowdlint.allow:1:[errwrap]")
}
