package lint

import "testing"

const ctxStoreFixture = `package store

type Store struct{}

func (s *Store) Writer(ns string, shards int) error { return nil }
`

func TestCtxThreadCatchesBlockingWithoutContext(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/store/store.go": ctxStoreFixture,
		"internal/crawler/c.go": `package crawler

import "time"

func Wait() {
	time.Sleep(time.Second)
}
`,
		"internal/core/c.go": `package core

import "fixture.test/m/internal/store"

func Persist(s *store.Store) error {
	return s.Writer("events", 1)
}
`,
	})
	got := findings(t, m, AnalyzerCtxThread)
	wantFindings(t, got,
		"internal/core/c.go:6:[ctxthread]",
		"internal/crawler/c.go:6:[ctxthread]")
}

func TestCtxThreadAcceptsContextFirstParamAndRequest(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/crawler/c.go": `package crawler

import (
	"context"
	"net/http"
	"time"
)

func Wait(ctx context.Context) {
	time.Sleep(time.Millisecond)
}

func Handle(w http.ResponseWriter, r *http.Request) {
	time.Sleep(time.Millisecond)
}

func Retry(ctx context.Context) {
	go func() {
		time.Sleep(time.Millisecond)
	}()
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerCtxThread))
}

// TestCtxThreadCatchesUnboundedReads: Store.Scan blocks for the whole
// namespace walk, so callers without a context in scope must be flagged
// toward ScanContext.
func TestCtxThreadCatchesUnboundedReads(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/store/store.go": `package store

type Store struct{}

func (s *Store) Scan(ns string, fn func(k string, raw []byte) error) error { return nil }
`,
		"internal/core/c.go": `package core

import "fixture.test/m/internal/store"

func Walk(s *store.Store) error {
	return s.Scan("events", nil)
}
`,
	})
	got := findings(t, m, AnalyzerCtxThread)
	wantFindings(t, got, "internal/core/c.go:6:[ctxthread]")
}

func TestCtxThreadBansContextBackgroundOutsideMain(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/core/c.go": `package core

import "context"

func Root() context.Context {
	return context.Background()
}
`,
		"cmd/tool/main.go": `package main

import (
	"context"
	"time"
)

func main() {
	ctx := context.Background()
	_ = ctx
	time.Sleep(time.Millisecond)
}
`,
	})
	got := findings(t, m, AnalyzerCtxThread)
	wantFindings(t, got, "internal/core/c.go:6:[ctxthread]")
}

func TestCtxThreadStoreExemptionAndSuppression(t *testing.T) {
	m := writeModule(t, map[string]string{
		// The store layer itself is exempt: it is the thing being wrapped.
		"internal/store/store.go": `package store

type Store struct{}

func (s *Store) Writer(ns string, shards int) error { return nil }

func (s *Store) Flush() error {
	return s.Writer("flush", 1)
}
`,
		"internal/core/c.go": `package core

import "fixture.test/m/internal/store"

func Persist(s *store.Store) error {
	//lint:ignore ctxthread one-shot migration helper; cancellation adds nothing
	return s.Writer("events", 1)
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerCtxThread))
}
