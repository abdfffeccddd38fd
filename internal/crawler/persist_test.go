package crawler

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"crowdscope/internal/ecosystem"
	"crowdscope/internal/store"
)

// countdownCtx is a context whose Err starts failing after n calls.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func startupSnapshot(n int) *Snapshot {
	snap := &Snapshot{Startups: map[string]*ecosystem.Startup{}}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%03d", i)
		snap.Startups[id] = &ecosystem.Startup{ID: id, Name: id}
	}
	return snap
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*", "*", "seg-*.csg"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPersistCancelCommitsNothing: a Persist cancelled mid-namespace
// leaves that namespace as it was — absent in a fresh store, unchanged
// from the previous round otherwise, at the K it was created with — and
// leaves no segment file behind.
func TestPersistCancelCommitsNothing(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &countdownCtx{Context: context.Background(), n: 40}
			if err := Persist(ctx, st, startupSnapshot(100), 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Persist returned %v", err)
			}
			if slices.Contains(st.Namespaces(), NSStartups) {
				st, _ := st.Stats(NSStartups)
				t.Fatalf("cancelled Persist committed %d of 100 startups", st.Records)
			}
			if left := segmentFiles(t, dir); len(left) != 0 {
				t.Fatalf("cancelled Persist left segment files: %v", left)
			}

			// The previous round, in a namespace created at K shards as a
			// sharded ingest leaves it.
			w, err := st.Writer(NSStartups, k)
			if err != nil {
				t.Fatal(err)
			}
			for id, s := range startupSnapshot(50).Startups {
				if err := w.Append(id, StartupRecord{Startup: *s}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			before, _ := st.Stats(NSStartups)
			files := segmentFiles(t, dir)
			ctx = &countdownCtx{Context: context.Background(), n: 40}
			if err := Persist(ctx, st, startupSnapshot(100), 1); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Persist returned %v", err)
			}
			if after, _ := st.Stats(NSStartups); after != before {
				t.Fatalf("cancelled round changed the namespace: %+v -> %+v", before, after)
			}
			if got := segmentFiles(t, dir); !slices.Equal(got, files) {
				t.Fatalf("cancelled round left segment files: %v, committed %v", got, files)
			}
		})
	}
}
