// Command crowdlint runs the repository's invariant analyzers over the
// whole module and exits non-zero on findings. It is stdlib-only and
// self-contained, so `go run ./cmd/crowdlint ./...` works in any checkout
// with no extra tooling.
//
// Usage:
//
//	crowdlint [-root dir] [-list] [patterns...]
//
// Patterns are accepted for `go vet`-style familiarity but the tool
// always analyzes the entire module containing -root: the invariants are
// whole-module properties (a reference in one package keeps an export in
// another alive), so partial loads would under-report.
//
// Findings print as file:line:col: [analyzer] message, paths relative to
// the module root. Suppress a finding with a justified directive on its
// line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// A directive or crowdlint.allow entry that suppresses nothing is itself
// a finding; delete the line it names.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"crowdscope/internal/lint"
)

func main() {
	root := flag.String("root", ".", "directory inside the module to analyze")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	os.Exit(run(*root, os.Stdout, os.Stderr))
}

// run loads the module containing root, executes every analyzer, prints
// findings to out, and returns the process exit code: 0 clean, 1 on
// findings, 2 on load failure.
func run(root string, out, errOut io.Writer) int {
	modRoot, err := findModuleRoot(root)
	if err != nil {
		fmt.Fprintln(errOut, "crowdlint:", err)
		return 2
	}
	m, err := lint.Load(modRoot)
	if err != nil {
		fmt.Fprintln(errOut, "crowdlint:", err)
		return 2
	}
	diags := m.Run(lint.All())
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(modRoot, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Fprintf(out, "%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "crowdlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}
