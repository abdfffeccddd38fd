package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is one parsed and fully type-checked Go module: the shared value
// every analyzer runs over.
type Module struct {
	// Root is the absolute directory holding go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset positions every parsed file.
	Fset *token.FileSet
	// Packages holds all non-test packages, importees before importers.
	Packages []*Package

	// directives collects every //lint:ignore comment, keyed by filename.
	directives map[string][]*directive
	// allow caches the parsed AllowlistFile for one Run; see allow.go.
	allow *allowlist
}

// Package is one type-checked package of the module.
type Package struct {
	// ImportPath is the full import path ("crowdscope/internal/graph").
	ImportPath string
	// Rel is the module-relative directory: "internal/graph", or "" for
	// the package at the module root.
	Rel string
	// Files are the parsed non-test sources, sorted by filename.
	Files []*ast.File
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// name returns the package's declared name ("main", "graph", ...).
func (p *Package) name() string { return p.Types.Name() }

// directive is one //lint:ignore comment.
type directive struct {
	analyzer string
	reason   string
	pos      token.Position
}

// Diagnostic is one finding, printable as file:line:col: [analyzer] msg.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one registered check: a pure function over the Module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module) []Diagnostic
}

// Load parses and type-checks the module rooted at dir (the directory
// containing go.mod). Test files (_test.go) and testdata/vendor/hidden
// directories are skipped: the invariants guard production code, and the
// deterministic packages' tests are explicitly free to use wall clocks.
// Files excluded by build constraints (//go:build lines, _GOOS/_GOARCH
// name suffixes) for the host platform are skipped as the compiler
// skips them, so per-platform variants of one function type-check.
func Load(dir string) (*Module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:       root,
		Path:       modPath,
		Fset:       token.NewFileSet(),
		directives: map[string][]*directive{},
	}

	type rawPkg struct {
		rel     string
		path    string
		files   []*ast.File
		imports map[string]bool // module-internal imports only
	}
	var raws []*rawPkg
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return fs.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
				continue
			}
			if match, err := build.Default.MatchFile(path, fn); err != nil {
				return fmt.Errorf("lint: build constraints of %s: %w", filepath.Join(path, fn), err)
			} else if !match {
				continue
			}
			f, err := parser.ParseFile(m.Fset, filepath.Join(path, fn), nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("lint: parse %s: %w", filepath.Join(path, fn), err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		rel = filepath.ToSlash(rel)
		importPath := modPath
		if rel != "" {
			importPath = modPath + "/" + rel
		}
		rp := &rawPkg{rel: rel, path: importPath, files: files, imports: map[string]bool{}}
		for _, f := range files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					rp.imports[p] = true
				}
			}
		}
		raws = append(raws, rp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(raws, func(i, j int) bool { return raws[i].path < raws[j].path })

	order, err := topoSort(raws, func(r *rawPkg) (string, map[string]bool) { return r.path, r.imports })
	if err != nil {
		return nil, err
	}

	checked := map[string]*types.Package{}
	imp := &chainImporter{
		module: checked,
		std:    importer.ForCompiler(m.Fset, "source", nil),
	}
	for _, rp := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		var typeErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		tpkg, err := conf.Check(rp.path, m.Fset, rp.files, info)
		if len(typeErrs) > 0 {
			msgs := make([]string, 0, len(typeErrs))
			for _, e := range typeErrs {
				msgs = append(msgs, e.Error())
			}
			return nil, fmt.Errorf("lint: type-check %s:\n\t%s", rp.path, strings.Join(msgs, "\n\t"))
		}
		if err != nil {
			return nil, fmt.Errorf("lint: type-check %s: %w", rp.path, err)
		}
		checked[rp.path] = tpkg
		m.Packages = append(m.Packages, &Package{
			ImportPath: rp.path,
			Rel:        rp.rel,
			Files:      rp.files,
			Types:      tpkg,
			Info:       info,
		})
	}

	m.collectDirectives()
	return m, nil
}

// chainImporter serves module-internal packages from the already-checked
// set and everything else (the standard library) from GOROOT source.
type chainImporter struct {
	module map[string]*types.Package
	std    types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.module[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// topoSort orders packages so every module-internal import precedes its
// importer, rejecting cycles.
func topoSort[T any](items []T, deps func(T) (string, map[string]bool)) ([]T, error) {
	byPath := map[string]T{}
	var paths []string
	for _, it := range items {
		p, _ := deps(it)
		byPath[p] = it
		paths = append(paths, p)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := map[string]int{}
	var order []T
	var visit func(p string) error
	visit = func(p string) error {
		it, ok := byPath[p]
		if !ok {
			return fmt.Errorf("lint: import %q names no package in the module", p)
		}
		switch state[p] {
		case gray:
			return fmt.Errorf("lint: import cycle through %s", p)
		case black:
			return nil
		}
		state[p] = gray
		_, imps := deps(it)
		sorted := make([]string, 0, len(imps))
		for d := range imps {
			sorted = append(sorted, d)
		}
		sort.Strings(sorted)
		for _, d := range sorted {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = black
		order = append(order, it)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (crowdlint must run inside the module)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: %s declares no module path", gomod)
}

// collectDirectives scans every comment for //lint:ignore directives.
func (m *Module) collectDirectives() {
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Slash)
					d := &directive{pos: pos}
					fields := strings.Fields(text)
					if len(fields) > 0 {
						d.analyzer = fields[0]
					}
					if len(fields) > 1 {
						d.reason = strings.Join(fields[1:], " ")
					}
					m.directives[pos.Filename] = append(m.directives[pos.Filename], d)
				}
			}
		}
	}
}

// suppressor returns the directive for the diagnostic's analyzer on the
// finding's line or the line above it, or nil.
func (m *Module) suppressor(d Diagnostic) *directive {
	for _, dir := range m.directives[d.Pos.Filename] {
		if dir.analyzer != d.Analyzer || dir.reason == "" {
			continue
		}
		if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
			return dir
		}
	}
	return nil
}

// Run executes the analyzers, drops suppressed findings, reports
// malformed and stale suppressions and allowlist lines, and returns
// everything in stable order. A directive is malformed when it has no
// reason or names no registered analyzer, and stale when its analyzer
// ran and it suppressed nothing.
func (m *Module) Run(analyzers []*Analyzer) []Diagnostic {
	m.allow = nil
	ran := map[string]bool{}
	used := map[*directive]bool{}
	var out []Diagnostic
	for _, a := range analyzers {
		ran[a.Name] = true
		for _, d := range a.Run(m) {
			if dir := m.suppressor(d); dir != nil {
				used[dir] = true
				continue
			}
			out = append(out, d)
		}
	}
	if m.allow != nil {
		out = append(out, m.allow.diags...)
	}
	known := map[string]bool{}
	var names []string
	for _, a := range All() {
		known[a.Name] = true
		names = append(names, a.Name)
	}
	for _, dirs := range m.directives {
		for _, dir := range dirs {
			switch {
			case dir.analyzer == "" || dir.reason == "":
				out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "lint",
					Message: "malformed suppression: want //lint:ignore <analyzer> <reason> (the reason is mandatory)"})
			case !known[dir.analyzer]:
				out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "lint",
					Message: fmt.Sprintf("malformed suppression: unknown analyzer %q (known: %s)", dir.analyzer, strings.Join(names, ", "))})
			case ran[dir.analyzer] && !used[dir]:
				out = append(out, Diagnostic{Pos: dir.pos, Analyzer: dir.analyzer,
					Message: "stale suppression: no " + dir.analyzer + " finding on this line or the next; delete the directive"})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// diag builds a Diagnostic at a token position.
func (m *Module) diag(analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      m.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// internalPath returns the module-internal import path for a
// module-relative directory ("internal/graph").
func (m *Module) internalPath(rel string) string {
	return m.Path + "/" + rel
}

// namedOf unwraps pointers to reach a named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// All returns every registered analyzer in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeterminism,
		AnalyzerCtxThread,
		AnalyzerErrWrap,
		AnalyzerBinLayout,
		AnalyzerDeadExport,
		AnalyzerLockDisc,
	}
}
