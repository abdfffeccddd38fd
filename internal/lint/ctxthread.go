package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerCtxThread enforces cancellation discipline on blocking work:
//
//   - A function whose body sleeps, dials the network, issues HTTP
//     requests, performs durable store writes ((*store.Store).Writer at
//     any shard count, PutBlob), reads a whole namespace without a
//     deadline ((*store.Store).Scan), or triggers serving-layer backend
//     reads ((*serve.Server).Refresh) must receive a
//     context.Context as its first parameter — or carry an
//     *http.Request parameter, whose Context() serves the same role in
//     handlers. Package main and internal/store itself (the layer being
//     wrapped) are exempt.
//   - context.Background() and context.TODO() are confined to package
//     main and tests: library code must thread the caller's context, not
//     mint a fresh root that silently detaches cancellation.
var AnalyzerCtxThread = &Analyzer{
	Name: "ctxthread",
	Doc:  "blocking work takes ctx as the first parameter; context.Background stays in main",
	Run:  runCtxThread,
}

func runCtxThread(m *Module) []Diagnostic {
	var out []Diagnostic
	storePath := m.internalPath("internal/store")
	servePath := m.internalPath("internal/serve")

	for _, pkg := range m.Packages {
		isMain := pkg.name() == "main"
		for _, f := range pkg.Files {
			// Collect every function node so a blocking call can consult
			// its whole enclosing chain (closures inherit an outer ctx).
			var funcs []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.FuncDecl, *ast.FuncLit:
					funcs = append(funcs, n)
				}
				return true
			})

			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil {
					return true
				}
				if !isMain {
					if fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
						(fn.Name() == "Background" || fn.Name() == "TODO") {
						out = append(out, m.diag("ctxthread", call.Pos(),
							"context.%s() outside package main detaches cancellation; accept the caller's ctx instead", fn.Name()))
					}
				}
				what := blockingCall(fn, storePath, servePath)
				if what == "" || isMain || pkg.Rel == "internal/store" {
					return true
				}
				if enclosingChainHasContext(pkg.Info, funcs, call) {
					return true
				}
				out = append(out, m.diag("ctxthread", call.Pos(),
					"%s blocks without a context in scope; accept ctx context.Context as the first parameter", what))
				return true
			})
		}
	}
	return out
}

// calleeFunc resolves a call expression to the *types.Func it invokes,
// or nil for builtins, conversions and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// blockingCall names the blocking operation fn performs, or "" when fn is
// not in the blocking set.
func blockingCall(fn *types.Func, storePath, servePath string) string {
	if fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if sig.Recv() == nil {
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Sleep" {
				return "time.Sleep"
			}
		case "net":
			switch fn.Name() {
			case "Dial", "DialTimeout", "DialTCP", "DialUDP", "DialIP", "DialUnix":
				return "net." + fn.Name()
			}
		case "net/http":
			switch fn.Name() {
			case "Get", "Head", "Post", "PostForm":
				return "http." + fn.Name()
			}
		}
		return ""
	}
	recv := namedOf(sig.Recv().Type())
	if recv == nil || recv.Obj().Pkg() == nil {
		return ""
	}
	switch {
	case recv.Obj().Pkg().Path() == "net/http" && recv.Obj().Name() == "Client":
		switch fn.Name() {
		case "Do", "Get", "Head", "Post", "PostForm":
			return "(*http.Client)." + fn.Name()
		}
	case recv.Obj().Pkg().Path() == storePath && recv.Obj().Name() == "Store":
		switch fn.Name() {
		case "Writer", "PutBlob":
			return "(*store.Store)." + fn.Name() + " (durable write)"
		case "Scan":
			return "(*store.Store).Scan (unbounded read; use ScanContext)"
		}
	case recv.Obj().Pkg().Path() == servePath && recv.Obj().Name() == "Server":
		if fn.Name() == "Refresh" {
			return "(*serve.Server)." + fn.Name() + " (backend read)"
		}
	}
	return ""
}

// enclosingChainHasContext reports whether any function enclosing the
// call accepts a context.Context first parameter or an *http.Request.
func enclosingChainHasContext(info *types.Info, funcs []ast.Node, call *ast.CallExpr) bool {
	for _, fnode := range funcs {
		if !(fnode.Pos() <= call.Pos() && call.End() <= fnode.End()) {
			continue
		}
		var sig *types.Signature
		switch fn := fnode.(type) {
		case *ast.FuncDecl:
			if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
				sig = obj.Type().(*types.Signature)
			}
		case *ast.FuncLit:
			if tv, ok := info.Types[fn]; ok {
				sig, _ = tv.Type.(*types.Signature)
			}
		}
		if sig == nil {
			continue
		}
		params := sig.Params()
		if params.Len() > 0 && isContextType(params.At(0).Type()) {
			return true
		}
		for i := 0; i < params.Len(); i++ {
			if isHTTPRequest(params.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

func isHTTPRequest(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "net/http" && n.Obj().Name() == "Request"
}
