package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// AnalyzerLockDisc enforces mutex discipline on two fronts:
//
//   - held-across-blocking: a sync.Mutex/RWMutex acquired in a function
//     must not stay held across a blocking call. The blocking set is
//     ctxthread's (sleeps, dials, HTTP, durable store writes, serve
//     refresh) plus (*store.Store).GetBlob — whole-artifact disk reads —
//     and it propagates transitively through the module call graph, so a
//     lock held across core.LoadFrozen is reported even though the
//     blocking syscall is three calls down. internal/store itself is
//     exempt: its mutex serializes the store's own I/O by design.
//   - double-lock: a second x.Lock()/x.RLock() on the same receiver along
//     a straight-line intra-function path with no intervening unlock —
//     an unconditional self-deadlock.
//
// Copies of sync primitives are go vet's copylocks check, which CI runs.
//
// The analysis is intra-function and flow-insensitive across branches: a
// nested block that unlocks anywhere is treated as releasing (no finding
// inside or after it), trading missed reports for near-zero false
// positives.
var AnalyzerLockDisc = &Analyzer{
	Name: "lockdisc",
	Doc:  "no locks held across blocking calls, no double-lock paths",
	Run:  runLockDisc,
}

func runLockDisc(m *Module) []Diagnostic {
	var out []Diagnostic
	storePath := m.internalPath("internal/store")
	servePath := m.internalPath("internal/serve")
	seed := func(fn *types.Func) string {
		if what := blockingCall(fn, storePath, servePath); what != "" {
			return what
		}
		return lockDiscExtraBlocking(fn, storePath)
	}
	blocking := buildCallGraph(m).blockingClosure(seed)

	for _, pkg := range m.Packages {
		exemptHeld := pkg.Rel == "internal/store"
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w := &lockWalker{
					m: m, info: pkg.Info, seed: seed, blocking: blocking,
					exemptHeld: exemptHeld,
				}
				w.walkFuncBody(fd.Body)
				out = append(out, w.diags...)
			}
		}
	}
	return out
}

// lockDiscExtraBlocking extends the ctxthread blocking set with reads
// that are cheap to name but expensive to sit on: whole-blob loads.
func lockDiscExtraBlocking(fn *types.Func, storePath string) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := namedOf(sig.Recv().Type())
	if recv == nil || recv.Obj().Pkg() == nil {
		return ""
	}
	if recv.Obj().Pkg().Path() == storePath && recv.Obj().Name() == "Store" && fn.Name() == "GetBlob" {
		return "(*store.Store).GetBlob (whole-artifact read)"
	}
	return ""
}

// lockWalker tracks held mutexes along one function's straight-line
// statement lists. Nested function literals get a fresh walker: they run
// later, under their own locking discipline.
type lockWalker struct {
	m          *Module
	info       *types.Info
	seed       func(*types.Func) string
	blocking   map[*types.Func]blockReason
	exemptHeld bool
	diags      []Diagnostic
}

// walkFuncBody analyzes one function body from an empty held set.
func (w *lockWalker) walkFuncBody(body *ast.BlockStmt) {
	w.walkBlock(body.List, map[string]bool{})
}

// walkBlock processes a statement list in order, mutating held as locks
// are taken and released, and recursing into nested control flow with a
// copy of the current held set.
func (w *lockWalker) walkBlock(stmts []ast.Stmt, held map[string]bool) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.ExprStmt:
			if recv, kind := lockOpIn(w.info, s.X); kind != "" {
				switch kind {
				case "lock":
					if held[recv] {
						w.diags = append(w.diags, w.m.diag("lockdisc", s.Pos(),
							"%s locked again while already held on this path (self-deadlock)", recv))
					}
					held[recv] = true
					continue
				case "unlock":
					delete(held, recv)
					continue
				}
			}
			w.checkStmt(s, held)
		case *ast.DeferStmt:
			// defer x.Unlock() pins x held for the rest of the function:
			// everything after it runs under the lock.
			if recv, kind := lockOpIn(w.info, s.Call); kind == "unlock" {
				held[recv] = true
				continue
			}
			w.checkStmt(s, held)
		case *ast.BlockStmt:
			w.walkBlock(s.List, copyHeld(held))
			for recv := range w.nestedUnlocks(s) {
				delete(held, recv)
			}
		case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			w.walkNested(st, held)
		default:
			w.checkStmt(st, held)
		}
	}
}

// walkNested handles a control-flow statement. A nested path that
// releases a held lock anywhere makes that lock "released" both inside
// and after the statement (conservative: a missed report beats a false
// one); everything still held flows into the nested statement lists,
// each with its own copy so sibling branches stay independent.
func (w *lockWalker) walkNested(st ast.Stmt, held map[string]bool) {
	released := w.nestedUnlocks(st)
	entry := copyHeld(held)
	for recv := range released {
		delete(entry, recv)
	}
	ast.Inspect(st, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			w.walkBlock(nn.List, copyHeld(entry))
			return false
		case *ast.CaseClause:
			w.walkBlock(nn.Body, copyHeld(entry))
			return false
		case *ast.CommClause:
			w.walkBlock(nn.Body, copyHeld(entry))
			return false
		}
		return true
	})
	for recv := range released {
		delete(held, recv)
	}
}

// nestedUnlocks collects the mutexes an unlock call anywhere inside n
// (outside nested function literals) may release.
func (w *lockWalker) nestedUnlocks(n ast.Node) map[string]bool {
	released := map[string]bool{}
	ast.Inspect(n, func(nn ast.Node) bool {
		if _, ok := nn.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := nn.(*ast.CallExpr); ok {
			if recv, kind := lockOpIn(w.info, call); kind == "unlock" {
				released[recv] = true
			}
		}
		return true
	})
	return released
}

// checkStmt reports blocking calls inside a statement while locks are
// held. Function literals are skipped: they execute later.
func (w *lockWalker) checkStmt(st ast.Node, held map[string]bool) {
	if len(held) == 0 || w.exemptHeld {
		return
	}
	ast.Inspect(st, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(w.info, call)
		if fn == nil {
			return true
		}
		what, via := "", ""
		if direct := w.seed(fn); direct != "" {
			what = direct
		} else if r, ok := w.blocking[fn]; ok {
			what, via = r.what, r.via
		}
		if what == "" {
			return true
		}
		msg := what
		if via != "" {
			msg = funcDisplay(fn) + ", which reaches " + what
		}
		for _, recv := range sortedKeys(held) {
			w.diags = append(w.diags, w.m.diag("lockdisc", call.Pos(),
				"%s held across %s; release the lock before blocking work", recv, msg))
		}
		return true
	})
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lockOpIn classifies an expression as a lock or unlock call on a
// sync.Mutex/RWMutex receiver, returning the receiver's printed
// spelling ("s.mu") and "lock"/"unlock"/"".
func lockOpIn(info *types.Info, e ast.Expr) (string, string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || !isSyncLockerRecv(fn) {
		return "", ""
	}
	recv := exprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return recv, "lock"
	case "Unlock", "RUnlock":
		return recv, "unlock"
	}
	return "", ""
}

// isSyncLockerRecv reports whether fn's receiver is sync.Mutex or
// sync.RWMutex (TryLock and friends included via Lock/Unlock names
// only; TryLock's conditional acquisition is not tracked).
func isSyncLockerRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedOf(sig.Recv().Type())
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" && (n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// exprString renders simple receiver expressions ("mu", "s.mu",
// "s.cache.mu"); anything else degrades to a stable placeholder.
func exprString(e ast.Expr) string {
	switch ee := e.(type) {
	case *ast.Ident:
		return ee.Name
	case *ast.SelectorExpr:
		return exprString(ee.X) + "." + ee.Sel.Name
	case *ast.ParenExpr:
		return exprString(ee.X)
	case *ast.StarExpr:
		return exprString(ee.X)
	}
	return "<mutex>"
}
