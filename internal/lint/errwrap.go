package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerErrWrap keeps error chains intact:
//
//   - fmt.Errorf formatting an error operand must use %w, so errors.Is /
//     errors.As keep seeing the cause (the store's ErrCorrupt checks and
//     the crawler's ErrNotFound handling depend on it).
//   - `_ = f()` discards of calls that return an error hide failures;
//     handle the error or suppress with a reason.
//
// Where the source cannot carry a //lint:ignore directive (the
// benchmark harness is frozen between baselines), an
// errwrap:<pkg>.<Func> allowlist entry exempts one function.
var AnalyzerErrWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "wrap error operands with %w; don't discard error returns with _ =",
	Run:  runErrWrap,
}

func runErrWrap(m *Module) []Diagnostic {
	var out []Diagnostic
	al := m.loadAllow()
	allow := al.forAnalyzer("errwrap")
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var found []Diagnostic
				switch node := n.(type) {
				case *ast.CallExpr:
					found = checkErrorf(m, pkg, node)
				case *ast.AssignStmt:
					found = checkDiscard(m, pkg, node)
				}
				if len(found) == 0 {
					return true
				}
				if key := enclosingAllowKey(pkg, f, n.Pos()); allow[key] {
					al.markUsed("errwrap", key)
					return true
				}
				out = append(out, found...)
				return true
			})
		}
	}
	return append(out, al.stale("errwrap")...)
}

// checkErrorf flags error-typed operands of fmt.Errorf bound to a verb
// other than %w.
func checkErrorf(m *Module, pkg *Package, call *ast.CallExpr) []Diagnostic {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return nil
	}
	if len(call.Args) < 2 {
		return nil
	}
	format, ok := constantString(pkg.Info, call.Args[0])
	if !ok {
		return nil
	}
	args := call.Args[1:]
	verbs, indexed := parseVerbs(format)
	if indexed {
		// Explicit argument indexes: fall back to a whole-call check.
		if strings.Contains(format, "%w") {
			return nil
		}
		for _, a := range args {
			if isErrorType(pkg.Info, a) {
				return []Diagnostic{m.diag("errwrap", a.Pos(),
					"error operand of fmt.Errorf formatted without %%w; the cause is lost to errors.Is/errors.As")}
			}
		}
		return nil
	}
	var out []Diagnostic
	for i, v := range verbs {
		if i >= len(args) {
			break
		}
		if v == 'w' {
			continue
		}
		if isErrorType(pkg.Info, args[i]) {
			out = append(out, m.diag("errwrap", args[i].Pos(),
				"error operand of fmt.Errorf formatted with %%%c; use %%w so errors.Is/errors.As keep seeing the cause", v))
		}
	}
	return out
}

// checkDiscard flags `_ = f()` (all-blank assignments) of calls whose
// results include an error.
func checkDiscard(m *Module, pkg *Package, as *ast.AssignStmt) []Diagnostic {
	if as.Tok != token.ASSIGN || len(as.Rhs) != 1 {
		return nil
	}
	for _, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name != "_" {
			return nil
		}
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return nil
	}
	hasError := false
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorAssignable(t.At(i).Type()) {
				hasError = true
			}
		}
	default:
		hasError = isErrorAssignable(tv.Type)
	}
	if !hasError {
		return nil
	}
	return []Diagnostic{m.diag("errwrap", as.Pos(),
		"`_ =` discards an error return; handle it or suppress with //lint:ignore errwrap <reason>")}
}

// parseVerbs returns the verb letter bound to each sequential argument of
// a printf format. indexed reports explicit %[n] indexes, which the
// sequential model cannot follow.
func parseVerbs(format string) (verbs []byte, indexed bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		// flags
		for i < len(format) && strings.IndexByte("+-# 0", format[i]) >= 0 {
			i++
		}
		if i < len(format) && format[i] == '[' {
			return nil, true
		}
		// width
		for i < len(format) && (format[i] >= '0' && format[i] <= '9') {
			i++
		}
		if i < len(format) && format[i] == '*' {
			verbs = append(verbs, '*')
			i++
		}
		// precision
		if i < len(format) && format[i] == '.' {
			i++
			for i < len(format) && (format[i] >= '0' && format[i] <= '9') {
				i++
			}
			if i < len(format) && format[i] == '*' {
				verbs = append(verbs, '*')
				i++
			}
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs, false
}

func constantString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func isErrorType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && isErrorAssignable(tv.Type)
}

func isErrorAssignable(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.AssignableTo(t, types.Universe.Lookup("error").Type())
}
