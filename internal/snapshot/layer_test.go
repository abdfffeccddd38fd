package snapshot

import (
	"go/build"
	"strings"
	"testing"
)

// TestImportsNothingFromTheModule holds the container to its layer: it
// is the format every higher layer writes through, so it may import the
// standard library only. A crowdscope/... import in its non-test files
// fails.
func TestImportsNothingFromTheModule(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.GoFiles) == 0 {
		t.Fatal("found no non-test Go files")
	}
	for _, path := range pkg.Imports {
		if path == "crowdscope" || strings.HasPrefix(path, "crowdscope/") {
			t.Errorf("internal/snapshot imports %s: the container imports nothing from the module", path)
		}
	}
}
