package lint

import (
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"
)

// AllowlistFile is the checked-in exception list at the module root.
// Each line names one symbol a specific analyzer exempts:
//
//	viewonly:internal/core.BuildInvestorGraph     # façade: builds the mutable graph
//	deadexport:internal/graph.FreezeBipartite     # reference the tests compare against
//
// Lines are <analyzer>:<module-relative-pkg>.<Symbol> (methods spell the
// receiver: <pkg>.<Type>.<Method>); '#' starts a comment. The analyzer
// prefix is mandatory and must name one of allowAnalyzers; any other
// line is a malformed-line finding.
//
// The analyzers keep the list minimal: an entry that no longer matches a
// real finding is reported as stale, and `crowdlint -fix-allow` rewrites
// the file dropping stale entries (sorted, comments preserved).
const AllowlistFile = "crowdlint.allow"

// allowEntry is one parsed allowlist line.
type allowEntry struct {
	analyzer string // owning analyzer ("viewonly", "deadexport", ...)
	key      string // symbol spelling: <pkg>.<Func> or <pkg>.<Type>.<Method>
	line     int    // 1-based line in the file
	comment  []string
	trailing string // same-line comment, "# ..." included
}

// allowlist is the parsed AllowlistFile plus the per-run record of which
// entries matched a real finding — the input to stale detection and to
// the -fix-allow rewrite.
type allowlist struct {
	path    string
	header  []string // leading comment block (to the first blank line), kept verbatim on rewrite
	entries []*allowEntry
	used    map[string]bool // "analyzer:key" entries that matched
	diags   []Diagnostic    // malformed-line findings
}

// allowAnalyzers names every analyzer that may own allowlist entries; a
// prefix outside this set is a malformed line, so typos cannot silently
// allow nothing.
var allowAnalyzers = map[string]bool{"deadexport": true, "errwrap": true, "goleak": true, "viewonly": true}

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
	var pending []string // comment lines waiting for the entry they document
	inHeader := true
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			// The header is the leading comment block up to the first
			// blank line; later comments document the entry below them.
			// Blank separators are not kept: the rewrite puts one before
			// every commented entry, so keeping them would grow the file
			// on each -fix-allow.
			switch {
			case line == "":
				inHeader = false
			case inHeader:
				al.header = append(al.header, raw)
			default:
				pending = append(pending, raw)
			}
			continue
		}
		inHeader = false
		entryText := line
		trailing := ""
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			entryText = strings.TrimSpace(line[:idx])
			trailing = strings.TrimSpace(line[idx:])
		}
		pos := token.Position{Filename: path, Line: i + 1, Column: 1}
		analyzer, key, ok := strings.Cut(entryText, ":")
		if !ok || strings.ContainsAny(entryText, " \t") {
			al.diags = append(al.diags, Diagnostic{Pos: pos, Analyzer: "lint",
				Message: "malformed allowlist line: want one <analyzer>:<pkg>.<Symbol> per line"})
			pending = nil
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
			pending = nil
			continue
		}
		al.entries = append(al.entries, &allowEntry{
			analyzer: analyzer,
			key:      key,
			line:     i + 1,
			comment:  pending,
			trailing: trailing,
		})
		pending = nil
	}
	return al
}

// forAnalyzer returns the entry keys one analyzer owns, with positions
// for stale reporting.
func (al *allowlist) forAnalyzer(analyzer string) (map[string]bool, map[string]token.Position) {
	keys := map[string]bool{}
	pos := map[string]token.Position{}
	for _, e := range al.entries {
		if e.analyzer != analyzer {
			continue
		}
		keys[e.key] = true
		pos[e.key] = token.Position{Filename: al.path, Line: e.line, Column: 1}
	}
	return keys, pos
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
			Message: "stale allowlist entry " + e.key +
				": no finding matches it; delete the line (or run crowdlint -fix-allow)",
		})
	}
	return out
}

// RewriteAllowlist runs the allowlist-aware analyzers and rewrites the
// module's AllowlistFile in place, dropping every stale entry. Entries
// are emitted sorted by (analyzer, key) with their attached and trailing
// comments preserved, under the file's original header block, so the
// output is deterministic regardless of the input's order. It returns
// the kept and dropped entry spellings (sorted). A module with no
// allowlist file is a no-op.
func RewriteAllowlist(m *Module) (kept, dropped []string, err error) {
	m.Run(All()) // populates allow.used via the analyzers
	al := m.loadAllow()
	if len(al.entries) == 0 && len(al.header) == 0 {
		if _, statErr := os.Stat(al.path); statErr != nil {
			return nil, nil, nil
		}
	}
	var keep []*allowEntry
	for _, e := range al.entries {
		if al.used[e.analyzer+":"+e.key] {
			keep = append(keep, e)
			kept = append(kept, e.analyzer+":"+e.key)
		} else {
			dropped = append(dropped, e.analyzer+":"+e.key)
		}
	}
	sort.Slice(keep, func(i, j int) bool {
		if keep[i].analyzer != keep[j].analyzer {
			return keep[i].analyzer < keep[j].analyzer
		}
		return keep[i].key < keep[j].key
	})
	sort.Strings(kept)
	sort.Strings(dropped)

	var b strings.Builder
	for _, line := range al.header {
		b.WriteString(line)
		b.WriteString("\n")
	}
	for _, e := range keep {
		if len(e.comment) > 0 && b.Len() > 0 {
			b.WriteString("\n")
		}
		for _, c := range e.comment {
			b.WriteString(c)
			b.WriteString("\n")
		}
		b.WriteString(e.analyzer)
		b.WriteString(":")
		b.WriteString(e.key)
		if e.trailing != "" {
			b.WriteString("   ")
			b.WriteString(e.trailing)
		}
		b.WriteString("\n")
	}
	if err := os.WriteFile(al.path, []byte(b.String()), 0o644); err != nil {
		return nil, nil, fmt.Errorf("lint: rewrite allowlist: %w", err)
	}
	return kept, dropped, nil
}
