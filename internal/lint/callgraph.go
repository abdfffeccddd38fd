package lint

import (
	"go/ast"
	"go/types"
)

// callGraph is the lightweight intra-module call graph lockdisc follows
// to see blocking work through helper functions. It records, per
// function declaration in the module, the statically-resolvable calls
// its body makes (direct calls and method calls on concrete receivers;
// calls through interfaces and function values are invisible, which the
// analyzer accepts as a documented under-approximation).
type callGraph struct {
	// calls maps a function object to the distinct functions its body
	// calls, in source order. Only statically-resolved callees appear;
	// both module-internal and imported (stdlib) functions are included
	// so blocking-set seeds on stdlib functions propagate.
	calls map[*types.Func][]*types.Func
}

// buildCallGraph indexes every function declaration of the module.
func buildCallGraph(m *Module) *callGraph {
	g := &callGraph{calls: map[*types.Func][]*types.Func{}}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				seen := map[*types.Func]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calleeFunc(pkg.Info, call); callee != nil && !seen[callee] {
						seen[callee] = true
						g.calls[obj] = append(g.calls[obj], callee)
					}
					return true
				})
			}
		}
	}
	return g
}

// blockReason records why a function counts as blocking: what it (or a
// callee chain) ultimately does, and through which first hop.
type blockReason struct {
	// what names the blocking operation, e.g. "time.Sleep" or
	// "(*store.Store).GetBlob (blob read)".
	what string
	// via is the first module function on the path to the operation, or
	// "" when the function blocks directly. Used to render "via X".
	via string
}

// blockingClosure computes the transitive blocking set: every function
// that — directly or through statically-resolved module calls — reaches
// an operation the seed function recognizes. seed returns a non-empty
// description for directly-blocking functions (the ctxthread blocking
// set plus analyzer-specific additions) and "" otherwise.
func (g *callGraph) blockingClosure(seed func(*types.Func) string) map[*types.Func]blockReason {
	memo := map[*types.Func]blockReason{}
	state := map[*types.Func]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(fn *types.Func) (blockReason, bool)
	visit = func(fn *types.Func) (blockReason, bool) {
		if what := seed(fn); what != "" {
			return blockReason{what: what}, true
		}
		switch state[fn] {
		case 1:
			return blockReason{}, false // recursion: assume non-blocking on the back edge
		case 2:
			r, ok := memo[fn]
			return r, ok
		}
		state[fn] = 1
		for _, callee := range g.calls[fn] {
			if r, ok := visit(callee); ok {
				// Report the first hop only; the chain bottoms out at r.what.
				res := blockReason{what: r.what, via: funcDisplay(callee)}
				memo[fn] = res
				state[fn] = 2
				return res, true
			}
		}
		state[fn] = 2
		return blockReason{}, false
	}
	for fn := range g.calls { // a declaration that calls nothing cannot block
		visit(fn)
	}
	return memo
}

// funcDisplay renders a function object the way diagnostics spell it:
// pkgname.Func or (*pkgname.Type).Method.
func funcDisplay(fn *types.Func) string {
	name := fn.Name()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + name
	}
	if n := namedOf(sig.Recv().Type()); n != nil {
		return "(*" + pkg + n.Obj().Name() + ")." + name
	}
	return pkg + name
}
