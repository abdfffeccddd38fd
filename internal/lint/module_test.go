package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestLoadRejectsImportCycle(t *testing.T) {
	_, err := loadRaw(t, map[string]string{
		"go.mod":          "module fixture.test/m\n\ngo 1.22\n",
		"internal/a/a.go": "package a\n\nimport _ \"fixture.test/m/internal/b\"\n",
		"internal/b/b.go": "package b\n\nimport _ \"fixture.test/m/internal/a\"\n",
	})
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("Load error = %v, want an import-cycle report", err)
	}
}

func TestLoadRejectsImportOfMissingModulePackage(t *testing.T) {
	_, err := loadRaw(t, map[string]string{
		"go.mod":          "module fixture.test/m\n\ngo 1.22\n",
		"internal/a/a.go": "package a\n\nimport _ \"fixture.test/m/internal/nothere\"\n",
	})
	if err == nil || !strings.Contains(err.Error(), "names no package in the module") {
		t.Fatalf("Load error = %v, want the missing-package report", err)
	}
}

func TestLoadRejectsGoModWithoutModuleLine(t *testing.T) {
	_, err := loadRaw(t, map[string]string{
		"go.mod": "go 1.22\n",
		"a.go":   "package m\n",
	})
	if err == nil || !strings.Contains(err.Error(), "declares no module path") {
		t.Fatalf("Load error = %v, want the no-module-path report", err)
	}
}

func TestLoadRejectsSyntaxErrors(t *testing.T) {
	_, err := loadRaw(t, map[string]string{
		"go.mod":          "module fixture.test/m\n\ngo 1.22\n",
		"internal/a/a.go": "package a\n\nfunc Broken( {\n",
	})
	if err == nil || !strings.Contains(err.Error(), "lint: parse") {
		t.Fatalf("Load error = %v, want a parse report", err)
	}
}

// loadRaw materializes a fixture tree and returns Load's raw result,
// for tests that expect the load itself to fail.
func loadRaw(t *testing.T, files map[string]string) (*Module, error) {
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
	return Load(dir)
}

// TestLoadHonorsBuildConstraints: per-platform variants of one function
// (a //go:build line, a _GOOS file-name suffix) must not collide — the
// loader keeps exactly the files the compiler would.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	m := writeModule(t, map[string]string{
		"p/sleep.go":       "//go:build !" + runtime.GOOS + "\n\npackage p\n\nfunc Sleep() int { return 0 }\n",
		"p/sleep_host.go":  "//go:build " + runtime.GOOS + "\n\npackage p\n\nfunc Sleep() int { return 1 }\n",
		"p/cpu_plan9.go":   "package p\n\nfunc CPU() int { return 0 }\n",
		"p/cpu_windows.go": "package p\n\nfunc CPU() int { return 1 }\n",
		"p/cpu_other.go":   "//go:build !plan9 && !windows\n\npackage p\n\nfunc CPU() int { return 2 }\n",
	})
	if len(m.Packages) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(m.Packages))
	}
	if got := len(m.Packages[0].Files); got != 2 {
		t.Fatalf("package kept %d files, want 2 (one Sleep, one CPU)", got)
	}
}
