package leakcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEverySpawningPackageChecksLeaks holds the module's goroutine
// ownership rule: every directory whose non-test files contain a `go`
// statement has a _test.go that calls leakcheck.Check, so each spawn
// site runs under a test that fails if its goroutines outlive it. The
// walk only parses; it needs no type information.
func TestEverySpawningPackageChecksLeaks(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found two levels up: %v", err)
	}
	spawns := map[string][]string{} // dir -> spawn positions
	checked := map[string]bool{}    // dir -> some _test.go calls leakcheck.Check
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		isTest := strings.HasSuffix(name, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !isTest {
					rel, _ := filepath.Rel(root, path)
					spawns[dir] = append(spawns[dir], fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(n.Go).Line))
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && isTest && x.Name == "leakcheck" && n.Sel.Name == "Check" {
					checked[dir] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(spawns) == 0 {
		t.Fatal("found no go statement in the module; the walk is broken")
	}
	dirs := make([]string, 0, len(spawns))
	for dir := range spawns {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if !checked[dir] {
			rel, _ := filepath.Rel(root, dir)
			t.Errorf("%s spawns goroutines (%s) but none of its tests calls leakcheck.Check",
				rel, strings.Join(spawns[dir], ", "))
		}
	}
}
