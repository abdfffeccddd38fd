package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunReportsFindingsWithExitOne(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module fixture.test/m\n\ngo 1.22\n",
		"internal/stats/s.go": `package stats

import "os"

func Env() string {
	return os.Getenv("CONFIG")
}
`,
	})
	var out, errOut bytes.Buffer
	if code := run(dir, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1; stderr: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "internal/stats/s.go:6:") {
		t.Errorf("output %q missing module-relative file:line", got)
	}
	if !strings.Contains(got, "[determinism]") {
		t.Errorf("output %q missing analyzer tag", got)
	}
	if !strings.Contains(errOut.String(), "1 finding(s)") {
		t.Errorf("stderr %q missing finding count", errOut.String())
	}
}

func TestRunCleanModuleExitsZero(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":  "module fixture.test/m\n\ngo 1.22\n",
		"main.go": "package main\n\nfunc main() {}\n",
	})
	var out, errOut bytes.Buffer
	if code := run(dir, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0; output: %s%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run printed %q", out.String())
	}
}

func TestRunWithoutModuleExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(t.TempDir(), &out, &errOut); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "go.mod") {
		t.Errorf("stderr %q does not explain the missing go.mod", errOut.String())
	}
}

// TestRunReportsAllowlistProblems: a malformed line, an unknown
// analyzer and a stale entry each fail the run with a finding naming
// its crowdlint.allow line; the entry that absorbs a real finding does
// not.
func TestRunReportsAllowlistProblems(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module fixture.test/m\n\ngo 1.22\n",
		"crowdlint.allow": `# header comment
errwrap:internal/a.Status   # err is nil on a bad status
not an entry
goleak:internal/a.Spawn
deadexport:internal/a.Gone
`,
		"main.go": "package main\n\nimport \"fixture.test/m/internal/a\"\n\nfunc main() { println(a.Status(0, nil) == nil) }\n",
		"internal/a/a.go": `package a

import "fmt"

func Status(code int, err error) error { return fmt.Errorf("status %d: %v", code, err) }
`,
	})
	var out, errOut bytes.Buffer
	if code := run(dir, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1; stderr: %s", code, errOut.String())
	}
	want := []string{
		"crowdlint.allow:3:1: [lint] malformed allowlist line",
		`crowdlint.allow:4:1: [lint] allowlist entry names unknown analyzer "goleak"`,
		"crowdlint.allow:5:1: [deadexport] stale allowlist entry internal/a.Gone",
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d finding(s), want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("finding %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}

func TestRunResolvesRootFromSubdirectory(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":            "module fixture.test/m\n\ngo 1.22\n",
		"main.go":           "package main\n\nfunc main() {}\n",
		"internal/a/a.go":   "package a\n",
		"internal/a/b/b.go": "package b\n",
	})
	var out, errOut bytes.Buffer
	if code := run(filepath.Join(dir, "internal", "a", "b"), &out, &errOut); code != 0 {
		t.Fatalf("run from subdirectory = %d, want 0; %s", code, errOut.String())
	}
}
