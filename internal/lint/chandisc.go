package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerChanDisc enforces channel ownership discipline:
//
//   - close-owner: a package-level channel variable or a struct field of
//     channel type that the module sends values on must have an
//     identifiable close-owner — a close(ch) on the same object inside
//     the channel's defining package. Channels of element type struct{}
//     are exempt: the empty struct marks a token/semaphore channel
//     (serve's admission gate), whose protocol is counting, not closing.
//   - single closer: a channel closed from more than one function has no
//     single owner; a second closer is one race away from a close-of-
//     closed panic.
//   - constant buffers: in the hot packages (internal/parallel, serve,
//     crawler, store) a make(chan T, n) buffer size must be a compile-
//     time constant, so capacity decisions are visible in review instead
//     of floating in with config. Deliberately operator-sized buffers
//     carry a //lint:ignore chandisc <reason>.
//
// Local channels (function-scoped vars) are skipped by the first two
// rules: their whole lifecycle is visible in one function body, where
// goleak already demands an exit path.
var AnalyzerChanDisc = &Analyzer{
	Name: "chandisc",
	Doc:  "sent-to channels need one close-owner in their defining package; hot-path buffers need constant sizes",
	Run:  runChanDisc,
}

// hotBufferPkgs names the module-relative packages where non-constant
// channel buffers are findings.
var hotBufferPkgs = map[string]bool{
	"internal/parallel": true,
	"internal/serve":    true,
	"internal/crawler":  true,
	"internal/store":    true,
	"internal/fleet":    true,
}

// chanSite is one send or close occurrence of a tracked channel object.
type chanSite struct {
	pkg  *Package
	fn   string // enclosing top-level function ("<init>" for var blocks)
	pos  token.Pos
	expr string // the channel expression as written at the site
}

func runChanDisc(m *Module) []Diagnostic {
	var out []Diagnostic
	sends := map[types.Object][]chanSite{}
	closes := map[types.Object][]chanSite{}
	var order []types.Object // first-seen order, for deterministic reporting

	track := func(store map[types.Object][]chanSite, obj types.Object, site chanSite) {
		if _, seenSend := sends[obj]; !seenSend {
			if _, seenClose := closes[obj]; !seenClose {
				order = append(order, obj)
			}
		}
		store[obj] = append(store[obj], site)
	}

	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch nn := n.(type) {
				case *ast.SendStmt:
					obj := chanOperandObj(pkg.Info, nn.Chan)
					if trackedChanObj(obj) {
						track(sends, obj, chanSite{pkg: pkg, fn: enclosingFuncName(f, nn.Pos()), pos: nn.Pos(), expr: exprString(nn.Chan)})
					}
				case *ast.CallExpr:
					if isCloseCall(pkg.Info, nn) {
						if obj := chanOperandObj(pkg.Info, nn.Args[0]); trackedChanObj(obj) {
							track(closes, obj, chanSite{pkg: pkg, fn: enclosingFuncName(f, nn.Pos()), pos: nn.Pos(), expr: exprString(nn.Args[0])})
						}
					}
					if msg := nonConstantBuffer(pkg, nn); msg != "" {
						out = append(out, m.diag("chandisc", nn.Pos(), "%s", msg))
					}
				}
				return true
			})
		}
	}

	for _, obj := range order {
		ss, cs := sends[obj], closes[obj]
		if len(ss) > 0 && !isTokenChan(obj) && !closedInDefiningPkg(obj, cs) {
			s := ss[0]
			out = append(out, m.diag("chandisc", s.pos,
				"send on %s, but no close-owner: nothing in %s ever closes it; close it where it is created (or make it a struct{} token channel)",
				s.expr, definingPkgName(obj)))
		}
		if owners := distinctCloserFuncs(cs); len(owners) > 1 {
			for _, c := range cs {
				out = append(out, m.diag("chandisc", c.pos,
					"%s is closed from %d functions (%s); a channel needs exactly one close-owner",
					c.expr, len(owners), strings.Join(owners, ", ")))
			}
		}
	}
	return out
}

// trackedChanObj reports whether obj is a channel the ownership rules
// cover: a package-level variable or a struct field, of channel type.
func trackedChanObj(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	if _, isChan := v.Type().Underlying().(*types.Chan); !isChan {
		return false
	}
	return v.IsField() || v.Parent() == v.Pkg().Scope()
}

// isTokenChan reports whether the channel's element type is struct{} —
// the token/semaphore idiom, exempt from the close-owner rule.
func isTokenChan(obj types.Object) bool {
	ch, ok := obj.Type().Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isCloseCall matches the builtin close(ch).
func isCloseCall(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "close" {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}

// closedInDefiningPkg reports whether any close site lives in the
// package that defines the channel object — the ownership convention:
// the package that creates a channel closes it.
func closedInDefiningPkg(obj types.Object, cs []chanSite) bool {
	for _, c := range cs {
		if c.pkg.Types.Path() == obj.Pkg().Path() {
			return true
		}
	}
	return false
}

func definingPkgName(obj types.Object) string {
	return "package " + obj.Pkg().Name()
}

// distinctCloserFuncs returns the sorted distinct "pkg.Func" spellings
// that close a channel.
func distinctCloserFuncs(cs []chanSite) []string {
	set := map[string]bool{}
	for _, c := range cs {
		set[c.pkg.name()+"."+c.fn] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// nonConstantBuffer reports a make(chan T, n) whose buffer size is not a
// compile-time constant, in the hot packages only.
func nonConstantBuffer(pkg *Package, call *ast.CallExpr) string {
	if !hotBufferPkgs[pkg.Rel] || len(call.Args) != 2 {
		return ""
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return ""
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return ""
	}
	tv, ok := pkg.Info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return ""
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return ""
	}
	if sz, ok := pkg.Info.Types[call.Args[1]]; ok && sz.Value != nil {
		return ""
	}
	return fmt.Sprintf("channel buffer size is not a constant in hot package %s; name the capacity as a constant so review sees it, or suppress with a reason", pkg.Rel)
}

// enclosingFuncName names the innermost top-level function declaration
// containing pos; closures attribute to the declaration that holds them.
func enclosingFuncName(f *ast.File, pos token.Pos) string {
	name := "<init>"
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			name = fd.Name.Name
		}
	}
	return name
}
