package lint

import (
	"strings"
	"testing"
)

func TestLockDiscFlagsLockHeldAcrossBlockingCall(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/a/a.go": `package a

import (
	"sync"
	"time"
)

type S struct{ mu sync.Mutex }

func (s *S) Bad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Second)
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerLockDisc), "internal/a/a.go:13:[lockdisc]")
}

func TestLockDiscPropagatesBlockingThroughCallGraph(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/a/a.go": `package a

import (
	"sync"
	"time"
)

type S struct{ mu sync.Mutex }

func helper() {
	time.Sleep(time.Second)
}

func (s *S) Bad() {
	s.mu.Lock()
	helper()
	s.mu.Unlock()
}
`,
	})
	got := m.Run([]*Analyzer{AnalyzerLockDisc})
	wantFindings(t, findings(t, m, AnalyzerLockDisc), "internal/a/a.go:16:[lockdisc]")
	if !strings.Contains(got[0].Message, "which reaches time.Sleep") {
		t.Fatalf("message = %q, want the transitive via-chain wording", got[0].Message)
	}
}

func TestLockDiscFlagsDoubleLock(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/a/a.go": `package a

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Dead() {
	s.mu.Lock()
	s.mu.Lock()
}
`,
	})
	got := m.Run([]*Analyzer{AnalyzerLockDisc})
	wantFindings(t, findings(t, m, AnalyzerLockDisc), "internal/a/a.go:9:[lockdisc]")
	if !strings.Contains(got[0].Message, "self-deadlock") {
		t.Fatalf("message = %q, want the self-deadlock wording", got[0].Message)
	}
}

func TestLockDiscCleanWhenReleasedBeforeBlocking(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/a/a.go": `package a

import (
	"sync"
	"time"
)

type S struct{ mu sync.Mutex }

func (s *S) Good() {
	s.mu.Lock()
	s.mu.Unlock()
	time.Sleep(time.Second)
}

func (s *S) CondRelease(n int) {
	s.mu.Lock()
	if n > 0 {
		s.mu.Unlock()
		time.Sleep(time.Second)
		return
	}
	s.mu.Unlock()
}

func (s *S) TwoLocks(other *S) {
	s.mu.Lock()
	other.mu.Lock()
	other.mu.Unlock()
	s.mu.Unlock()
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerLockDisc))
}

func TestLockDiscSuppressionWithReason(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/a/a.go": `package a

import (
	"sync"
	"time"
)

type S struct{ mu sync.Mutex }

func (s *S) Flight() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lockdisc the lock IS the single-flight; concurrent callers are meant to queue
	time.Sleep(time.Second)
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerLockDisc))
}
