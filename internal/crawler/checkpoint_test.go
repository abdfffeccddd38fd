package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"crowdscope/internal/ecosystem"
	"crowdscope/internal/store"
)

// writeLastCheckpoint commits a well-formed checkpoint record followed
// by payload to the namespace, so payload is the record LoadCheckpoint
// decodes.
func writeLastCheckpoint(t testing.TB, st *store.Store, ns string, payload []byte) {
	w, err := st.Writer(ns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("", &Checkpoint{Phase: PhaseBFS, Snap: &Snapshot{}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRaw("", payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCheckpointRejectsMalformedSnapshot: a last record with a null
// entity used to load and then panic the resumed crawl (PersistSharded
// and augmentation dereference every entity), and one with an unknown
// phase resumed as a finished crawl. Both, and undecodable bytes, must
// fail the load with an error wrapping store.ErrCorrupt.
func TestLoadCheckpointRejectsMalformedSnapshot(t *testing.T) {
	for _, rec := range []string{
		`{"phase":"augment","round":1,"snapshot":{"Startups":{"s1":null}}}`,
		`{"phase":"bfs","snapshot":{"Users":{"u1":{"ID":"u1"},"u2":null}}}`,
		`{"phase":"done","snapshot":{"CrunchBase":{"s1":null}}}`,
		`{"phase":"persisted","snapshot":{"Facebook":{"s1":null}}}`,
		`{"phase":"augment","snapshot":{"Twitter":{"s1":null}}}`,
		`{"phase":"finished","snapshot":{}}`,
		`{"snapshot":null}`,
		`{"phase":"bfs"`,
	} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		writeLastCheckpoint(t, st, "checkpoint/crawl", []byte(rec))
		cp, ok, err := LoadCheckpoint(context.Background(), st, "checkpoint/crawl")
		if !errors.Is(err, store.ErrCorrupt) || ok || cp != nil {
			t.Errorf("%s: ok=%v err=%v, want an ErrCorrupt error", rec, ok, err)
		}
	}
}

// FuzzLoadCheckpoint writes arbitrary bytes as a namespace's last
// checkpoint record. LoadCheckpoint must return an ErrCorrupt error, or
// a checkpoint in one of the four phases whose snapshot persists.
func FuzzLoadCheckpoint(f *testing.F) {
	rec, err := json.Marshal(&Checkpoint{
		Seq:             7,
		Phase:           PhaseAugment,
		Round:           3,
		StartupFrontier: []string{"s2"},
		UserFrontier:    []string{"u2"},
		AugmentDone:     []string{"s1"},
		Snap: &Snapshot{
			Startups:   map[string]*ecosystem.Startup{"s1": {ID: "s1", Name: "One", FounderIDs: []string{"u1"}}},
			Users:      map[string]*ecosystem.User{"u1": {ID: "u1", Investments: []string{"s1"}}},
			CrunchBase: map[string]*ecosystem.CrunchBaseProfile{"s1": {Rounds: []ecosystem.FundingRound{{AmountUSD: 5}}}},
			Facebook:   map[string]*ecosystem.FacebookProfile{"s1": {Likes: 3}},
			Twitter:    map[string]*ecosystem.TwitterProfile{"s1": {Username: "one", FollowersCount: 9}},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add(rec[:len(rec)/2])
	f.Add([]byte(`{"phase":"augment","round":1,"snapshot":{"Startups":{"s1":null}}}`))
	f.Add([]byte(`{"phase":"finished","snapshot":{}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		writeLastCheckpoint(t, st, "checkpoint/crawl", data)
		ctx := context.Background()
		cp, ok, err := LoadCheckpoint(ctx, st, "checkpoint/crawl")
		if err != nil {
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("error does not wrap store.ErrCorrupt: %v", err)
			}
			return
		}
		if !ok {
			t.Fatal("a committed record loaded as no checkpoint")
		}
		switch cp.Phase {
		case PhaseBFS, PhaseAugment, PhaseDone, PhasePersisted:
		default:
			t.Fatalf("loaded unknown phase %q", cp.Phase)
		}
		if err := PersistSharded(ctx, st, cp.Snap, 0, 2); err != nil {
			t.Fatalf("persist the loaded snapshot: %v", err)
		}
	})
}
