package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// AllowlistFile is the checked-in exception list at the module root.
// Each line names one symbol a specific analyzer exempts:
//
//	deadexport:internal/ecosystem.GenAugment      # only the tests decode into it
//	errwrap:benchmark.replayDepths                # err is nil on a non-200 status
//
// Lines are <analyzer>:<module-relative-pkg>.<Symbol> (methods spell the
// receiver: <pkg>.<Type>.<Method>); '#' starts a comment. The analyzer
// prefix is mandatory and must name one of allowAnalyzers; any other
// line is a malformed-line finding.
//
// The analyzers keep the list minimal: an entry that no longer matches a
// real finding is reported as stale, naming the line to delete.
const AllowlistFile = "crowdlint.allow"

// allowEntry is one parsed allowlist line.
type allowEntry struct {
	analyzer string // owning analyzer ("deadexport", "errwrap")
	key      string // symbol spelling: <pkg>.<Func> or <pkg>.<Type>.<Method>
	line     int    // 1-based line in the file
}

// allowlist is the parsed AllowlistFile plus the per-run record of which
// entries matched a real finding — the input to stale detection.
type allowlist struct {
	path    string
	entries []*allowEntry
	used    map[string]bool // "analyzer:key" entries that matched
	diags   []Diagnostic    // malformed-line findings
}

// allowAnalyzers names every analyzer that may own allowlist entries; a
// prefix outside this set is a malformed line, so typos cannot silently
// allow nothing.
var allowAnalyzers = map[string]bool{"deadexport": true, "errwrap": true}

// loadAllow parses the module's allowlist. A missing file is an empty
// list. The result is cached on the Module so the analyzers and the
// framework's stale sweep share one `used` record per Run.
func (m *Module) loadAllow() *allowlist {
	if m.allow != nil {
		return m.allow
	}
	m.allow = parseAllowlist(m.Root + "/" + AllowlistFile)
	return m.allow
}

func parseAllowlist(path string) *allowlist {
	al := &allowlist{path: path, used: map[string]bool{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return al
	}
	for i, raw := range strings.Split(string(data), "\n") {
		line, _, _ := strings.Cut(raw, "#")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		pos := token.Position{Filename: path, Line: i + 1, Column: 1}
		analyzer, key, ok := strings.Cut(line, ":")
		if !ok || strings.ContainsAny(line, " \t") {
			al.diags = append(al.diags, Diagnostic{Pos: pos, Analyzer: "lint",
				Message: "malformed allowlist line: want one <analyzer>:<pkg>.<Symbol> per line"})
			continue
		}
		if !allowAnalyzers[analyzer] {
			known := make([]string, 0, len(allowAnalyzers))
			for name := range allowAnalyzers {
				known = append(known, name)
			}
			sort.Strings(known)
			al.diags = append(al.diags, Diagnostic{Pos: pos, Analyzer: "lint",
				Message: fmt.Sprintf("allowlist entry names unknown analyzer %q (known: %s)", analyzer, strings.Join(known, ", "))})
			continue
		}
		al.entries = append(al.entries, &allowEntry{analyzer: analyzer, key: key, line: i + 1})
	}
	return al
}

// forAnalyzer returns the entry keys one analyzer owns.
func (al *allowlist) forAnalyzer(analyzer string) map[string]bool {
	keys := map[string]bool{}
	for _, e := range al.entries {
		if e.analyzer == analyzer {
			keys[e.key] = true
		}
	}
	return keys
}

// markUsed records that an analyzer matched an entry to a real finding.
func (al *allowlist) markUsed(analyzer, key string) { al.used[analyzer+":"+key] = true }

// stale returns diagnostics for every entry no finding matched, in file
// order. Analyzers call it after their scan so suppressing a finding via
// the allowlist and letting the entry rot are both impossible.
func (al *allowlist) stale(analyzer string) []Diagnostic {
	var out []Diagnostic
	for _, e := range al.entries {
		if e.analyzer != analyzer || al.used[e.analyzer+":"+e.key] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      token.Position{Filename: al.path, Line: e.line, Column: 1},
			Analyzer: analyzer,
			Message:  "stale allowlist entry " + e.key + ": no finding matches it; delete the line",
		})
	}
	return out
}

// enclosingAllowKey spells the function declaration of f holding a
// position as an allowlist key (<pkg>.<Func> / <pkg>.<Type>.<Method>);
// function literals attribute to the declaration that contains them.
func enclosingAllowKey(pkg *Package, f *ast.File, pos token.Pos) string {
	prefix := pkg.Rel
	if prefix == "" {
		prefix = "."
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || fd.End() < pos {
			continue
		}
		if recv := pkg.Info.Defs[fd.Name].Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return prefix + "." + n.Obj().Name() + "." + fd.Name.Name
			}
		}
		return prefix + "." + fd.Name.Name
	}
	return prefix + ".?"
}
