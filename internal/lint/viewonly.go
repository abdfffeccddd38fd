package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerViewOnly enforces PR 3's read-only-view discipline: outside
// internal/graph, exported functions and methods must traffic in
// graph.BipartiteView, never the mutable *graph.Bipartite builder. The
// known façade constructors live in crowdlint.allow with a justifying
// comment.
var AnalyzerViewOnly = &Analyzer{
	Name: "viewonly",
	Doc:  "exported APIs outside internal/graph must use graph views, not builder types",
	Run:  runViewOnly,
}

func runViewOnly(m *Module) []Diagnostic {
	al := m.loadAllow()
	allow, _ := al.forAnalyzer("viewonly")
	var diags []Diagnostic
	graphPath := m.internalPath("internal/graph")

	for _, pkg := range m.Packages {
		if pkg.Rel == "internal/graph" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sig := obj.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil && !receiverExported(recv.Type()) {
					continue // methods on unexported types are not API
				}
				if !bannedInSignature(sig, graphPath) {
					continue
				}
				key := allowKey(pkg, fd, sig)
				if allow[key] {
					al.markUsed("viewonly", key)
					continue
				}
				diags = append(diags, m.diag("viewonly", fd.Name.Pos(),
					"exported %s exposes *graph.Bipartite; accept or return graph.BipartiteView instead, or add %q to %s with a justification",
					key, "viewonly:"+key, AllowlistFile))
			}
		}
	}

	return append(diags, al.stale("viewonly")...)
}

// allowKey derives a symbol's allowlist spelling: the module-relative
// package directory, then the receiver type for methods, then the name.
func allowKey(pkg *Package, fd *ast.FuncDecl, sig *types.Signature) string {
	prefix := pkg.Rel
	if prefix == "" {
		prefix = "."
	}
	if recv := sig.Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			return prefix + "." + n.Obj().Name() + "." + fd.Name.Name
		}
	}
	return prefix + "." + fd.Name.Name
}

// bannedInSignature reports whether the builder type graph.Bipartite is
// reachable from the signature's parameters or results.
func bannedInSignature(sig *types.Signature, graphPath string) bool {
	seen := map[types.Type]bool{}
	var walk func(t types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch tt := t.(type) {
		case *types.Named:
			// Other named types are opaque: identity, not structure.
			obj := tt.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == graphPath && obj.Name() == "Bipartite"
		case *types.Pointer:
			return walk(tt.Elem())
		case *types.Slice:
			return walk(tt.Elem())
		case *types.Array:
			return walk(tt.Elem())
		case *types.Map:
			return walk(tt.Key()) || walk(tt.Elem())
		case *types.Chan:
			return walk(tt.Elem())
		case *types.Signature:
			return walkTuple(tt.Params(), walk) || walkTuple(tt.Results(), walk)
		}
		return false
	}
	return walkTuple(sig.Params(), walk) || walkTuple(sig.Results(), walk)
}

func walkTuple(t *types.Tuple, walk func(types.Type) bool) bool {
	for i := 0; i < t.Len(); i++ {
		if walk(t.At(i).Type()) {
			return true
		}
	}
	return false
}

// namedOf unwraps pointers to reach a named receiver type.
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

func receiverExported(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Exported()
}
