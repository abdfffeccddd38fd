// Package lint is crowdlint's analyzer framework: a self-contained
// static-analysis harness built only on the standard library's go/parser,
// go/ast and go/types (no golang.org/x/tools dependency).
//
// Load parses every package of a module, type-checks them in dependency
// order (standard-library imports are type-checked from GOROOT source via
// go/importer's "source" compiler), and returns one Module value. Each
// Analyzer is a pure function over that Module returning Diagnostics;
// Module.Run executes a set of analyzers, applies //lint:ignore
// suppressions and returns the surviving findings in stable order.
//
// The analyzers encode the repository's load-bearing conventions —
// invariants earlier PRs established by review alone:
//
//   - determinism: deterministic packages must not read wall clocks,
//     environment variables or the global math/rand stream (PR 1-2's
//     bit-identical reruns).
//   - ctxthread: blocking work (sleeps, network, durable store writes,
//     whole-namespace scans) is cancelable: a context arrives as the
//     first parameter, and context.Background() stays in main packages.
//   - errwrap: error causes survive wrapping (%w, not %v/%s), and error
//     returns are not silently discarded with `_ =`.
//   - binlayout: the CSFROZ01 and segment wire formats stay fixed-width,
//     keyed and documented.
//   - deadexport: internal/ exports only what some non-test code in the
//     module references; a name only tests reach needs a reasoned
//     crowdlint.allow entry.
//   - lockdisc: no mutex is held across blocking work (directly or
//     through the intra-module call graph, callgraph.go), and no
//     function double-locks the same receiver. Lock copies are go vet's.
//
// Suppression syntax, checked by the framework itself:
//
//	//lint:ignore <analyzer> <reason>
//
// on the finding's line or the line above. The reason is mandatory and
// the analyzer must be registered; a directive that breaks either rule,
// or whose analyzer ran and found nothing for it to suppress, is itself
// reported.
package lint
