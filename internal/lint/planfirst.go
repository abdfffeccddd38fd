package lint

import (
	"go/ast"
	"go/types"
)

// planfirstPackages must route every record read through the query
// planner: predicates get pushed into index probes first, and only the
// surviving rows are read. A stray ReadRecords call anywhere else in the
// executor silently turns an index route back into a full scan —
// correct results, defeated optimization, invisible in tests.
var planfirstPackages = map[string]bool{
	"internal/query": true,
}

// recordReadMethods are the source methods that stream records.
var recordReadMethods = map[string]bool{
	"ReadRecords": true,
	"ReadRows":    true,
}

// planfirstAllowedCallers is the one blessed read site, reached only
// after planFor has classified the WHERE conjuncts: stream reads the
// whole namespace on the scan route and exactly the planner-selected
// rows on the index routes, into the same sink.
var planfirstAllowedCallers = map[string]bool{
	"stream": true,
}

// AnalyzerPlanFirst enforces the planner-before-records discipline in
// the query packages: methods named ReadRecords or ReadRows may only be
// invoked from inside the designated read site, so no code path can
// read records before predicates are pushed down.
var AnalyzerPlanFirst = &Analyzer{
	Name: "planfirst",
	Doc:  "query packages: record reads only inside the planner's read site",
	Run:  runPlanFirst,
}

func runPlanFirst(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range m.Packages {
		if !planfirstPackages[pkg.Rel] {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || planfirstAllowedCallers[fd.Name.Name] {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || !recordReadMethods[sel.Sel.Name] {
						return true
					}
					fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
					if !ok {
						return true
					}
					sig, ok := fn.Type().(*types.Signature)
					if !ok || sig.Recv() == nil {
						return true // unrelated package-level function sharing the name
					}
					out = append(out, m.diag("planfirst", sel.Sel.Pos(),
						"%s reads records inside %s before predicates are pushed down; read through stream instead",
						sel.Sel.Name, fd.Name.Name))
					return true
				})
			}
		}
	}
	return out
}
