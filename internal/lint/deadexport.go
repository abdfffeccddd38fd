package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerDeadExport keeps internal/ to what its importers wire: an
// exported package-level func, type, var or const in internal/... that
// no non-test code anywhere in the module references is a finding. A
// reference from inside the name's own declaration (a recursive call, a
// type's own methods) does not count. Packages that no non-test package
// imports — test-only helpers such as internal/leakcheck — are skipped.
// A name only tests reach stays exported only through a reasoned
// deadexport entry in crowdlint.allow.
var AnalyzerDeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "internal/ exports only what some non-test code references",
	Run:  runDeadExport,
}

func runDeadExport(m *Module) []Diagnostic {
	al := m.loadAllow()
	allow := al.forAnalyzer("deadexport")
	imported := map[string]bool{}
	uses := map[types.Object][]*ast.Ident{}
	for _, pkg := range m.Packages {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
		for id, obj := range pkg.Info.Uses {
			uses[obj] = append(uses[obj], id)
		}
	}

	var out []Diagnostic
	for _, pkg := range m.Packages {
		if !strings.HasPrefix(pkg.Rel, "internal/") || !imported[pkg.ImportPath] {
			continue
		}
		// own maps each package-level object to the syntax declaring it:
		// its func or spec, plus, for a type, every method declared on it.
		var names []*ast.Ident
		own := map[types.Object][]ast.Node{}
		declare := func(name *ast.Ident, n ast.Node) {
			names = append(names, name)
			obj := pkg.Info.Defs[name]
			own[obj] = append(own[obj], n)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					recv := pkg.Info.Defs[d.Name].Type().(*types.Signature).Recv()
					if recv == nil {
						declare(d.Name, d)
					} else if n := namedOf(recv.Type()); n != nil {
						own[n.Obj()] = append(own[n.Obj()], d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(s.Name, s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								declare(name, s)
							}
						}
					}
				}
			}
		}
		for _, name := range names {
			obj := pkg.Info.Defs[name]
			if !name.IsExported() || referencedOutside(uses[obj], own[obj]) {
				continue
			}
			key := pkg.Rel + "." + name.Name
			if allow[key] {
				al.markUsed("deadexport", key)
				continue
			}
			out = append(out, m.diag("deadexport", name.Pos(),
				"exported %s has no non-test reference in the module; delete or unexport it, or add %q to %s with a reason",
				key, "deadexport:"+key, AllowlistFile))
		}
	}
	return append(out, al.stale("deadexport")...)
}

// referencedOutside reports whether any use lies outside every one of
// the declaring nodes.
func referencedOutside(uses []*ast.Ident, own []ast.Node) bool {
	for _, u := range uses {
		inside := false
		for _, n := range own {
			if n.Pos() <= u.Pos() && u.End() <= n.End() {
				inside = true
				break
			}
		}
		if !inside {
			return true
		}
	}
	return false
}
