// Package leakcheck is the repository's runtime goroutine-leak harness:
// a test calls Check(t) as its FIRST statement; leakcheck snapshots the live
// goroutines, and a registered cleanup re-snapshots at test end, failing
// the test with full stacks if goroutines created during the test are
// still alive. Because cleanups run LIFO, calling Check first means the
// leak check runs last — after the test's own cleanups (server
// shutdowns, pool drains) have had their chance to join workers.
//
// Goroutine exits race test completion, so the cleanup retries with
// exponential backoff until a deadline (default 2s) before declaring a
// leak. Known-benign goroutines — the test runner, the runtime's own
// workers, signal handling, and net/http keep-alive connections — are
// filtered by stack prefix; tests add their own with IgnorePrefix.
//
// The package is stdlib-only and allocation-light: one runtime.Stack
// snapshot per attempt, no background state.
package leakcheck

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// defaultIgnore filters goroutines no test owns. An entry matches when
// the goroutine's top frame or its "created by" function starts with it.
var defaultIgnore = []string{
	"testing.",              // the test runner and parked parallel subtests
	"runtime.",              // GC workers, the finalizer goroutine
	"os/signal.",            // signal.Notify's receive loop
	"net/http.(*Transport)", // keep-alive conns created by Transport.dialConn
	"net/http.(*persistConn)",
}

// config is the per-Check tuning, built from Options.
type config struct {
	deadline time.Duration
	ignore   []string
}

// Option customizes one Check call.
type Option func(*config)

// Deadline bounds how long the cleanup waits for straggler goroutines
// to exit before declaring them leaked.
func Deadline(d time.Duration) Option { return func(c *config) { c.deadline = d } }

// IgnorePrefix exempts goroutines whose top frame or creator function
// starts with the prefix — for libraries with sanctioned process-lifetime
// workers.
func IgnorePrefix(p string) Option { return func(c *config) { c.ignore = append(c.ignore, p) } }

// Check snapshots the live goroutines and registers a cleanup that fails
// t if goroutines created during the test outlive it. Call it first in
// the test body.
func Check(t testing.TB, opts ...Option) {
	t.Helper()
	c := &config{deadline: 2 * time.Second, ignore: defaultIgnore}
	for _, o := range opts {
		o(c)
	}
	base := map[int]bool{}
	for _, g := range snapshot() {
		base[g.ID] = true
	}
	t.Cleanup(func() {
		for _, g := range waitDrain(base, c) {
			t.Errorf("leakcheck: leaked goroutine %d [%s]:\n%s", g.ID, g.State, g.Full)
		}
	})
}

// waitDrain polls for leak candidates with exponential backoff until
// none remain or the deadline passes, and returns the survivors.
func waitDrain(base map[int]bool, c *config) []goroutine {
	deadline := time.Now().Add(c.deadline)
	delay := time.Millisecond
	for {
		leaked := leakedNow(base, c)
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		//lint:ignore ctxthread test-cleanup backoff: the deadline above bounds it, and a testing.TB cleanup has no ctx to thread
		time.Sleep(delay)
		if delay *= 2; delay > 100*time.Millisecond {
			delay = 100 * time.Millisecond
		}
	}
}

// leakedNow returns the goroutines alive right now that are neither in
// the baseline nor filtered, sorted by ID for stable output.
func leakedNow(base map[int]bool, c *config) []goroutine {
	var out []goroutine
	for _, g := range snapshot() {
		if base[g.ID] || ignored(g, c.ignore) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// ignored reports whether a goroutine's top frame or creator matches an
// ignore prefix.
func ignored(g goroutine, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(g.Top, p) || strings.HasPrefix(g.Creator, p) {
			return true
		}
	}
	return false
}

// goroutine is one parsed stack block from runtime.Stack.
type goroutine struct {
	ID      int
	State   string // "chan receive", "select", ...
	Top     string // innermost frame's function
	Creator string // "created by" function, "" for main/runtime goroutines
	Full    string // the verbatim block, for failure messages
}

// snapshot captures and parses all goroutine stacks, growing the buffer
// until the dump fits.
func snapshot() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return parseStacks(string(buf))
}

// parseStacks splits a runtime.Stack(all=true) dump into goroutines.
// Malformed blocks are skipped, not errors: the format is stable but
// owned by the runtime, and a missed goroutine only weakens one check.
func parseStacks(dump string) []goroutine {
	var out []goroutine
	for _, block := range strings.Split(strings.TrimSpace(dump), "\n\n") {
		lines := strings.Split(block, "\n")
		rest, ok := strings.CutPrefix(lines[0], "goroutine ")
		if !ok {
			continue
		}
		idStr, state, ok := strings.Cut(rest, " ")
		if !ok {
			continue
		}
		id, err := strconv.Atoi(idStr)
		if err != nil {
			continue
		}
		g := goroutine{ID: id, State: strings.Trim(state, "[]:"), Full: block}
		for _, ln := range lines[1:] {
			if strings.HasPrefix(ln, "\t") {
				continue // file:line detail
			}
			if cb, found := strings.CutPrefix(ln, "created by "); found {
				creator, _, _ := strings.Cut(cb, " in goroutine")
				g.Creator = strings.TrimSpace(creator)
				continue
			}
			if g.Top == "" {
				g.Top = funcName(ln)
			}
		}
		out = append(out, g)
	}
	return out
}

// funcName strips a frame line's argument list: the cut point is the
// LAST '(' because method frames carry parenthesized receivers —
// "pkg.(*T).m(0x...)".
func funcName(line string) string {
	if i := strings.LastIndex(line, "("); i > 0 {
		return line[:i]
	}
	return line
}

// Count returns how many goroutines are currently alive after filtering
// with the default ignore set — the building block for "drained back to
// baseline" regression assertions.
func Count() int {
	n := 0
	for _, g := range snapshot() {
		if !ignored(g, defaultIgnore) {
			n++
		}
	}
	return n
}

// String renders a goroutine for debugging helpers.
func (g goroutine) String() string {
	return fmt.Sprintf("goroutine %d [%s] %s (created by %s)", g.ID, g.State, g.Top, g.Creator)
}
