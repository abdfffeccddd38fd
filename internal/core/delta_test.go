package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crowdscope/internal/snapshot"
	"crowdscope/internal/store"
)

// worldGen mutates a random world across crawl rounds, the test-side
// model of the longitudinal simulation: per-round entity adds, field
// drift, edge growth and deletions, with fresh IDs drawn from counters
// so entity lists stay strictly sorted.
type worldGen struct {
	rng     *rand.Rand
	nextCo  int
	nextInv int
}

func newWorldGen(seed int64, n int) (*worldGen, *FrozenSnapshot) {
	rng := rand.New(rand.NewSource(seed))
	fs := randomWorld(rng, 0, n)
	return &worldGen{rng: rng, nextCo: n, nextInv: len(fs.Investors)}, fs
}

func (g *worldGen) newCompany() Company {
	id := fmt.Sprintf("co-%05d", g.nextCo)
	g.nextCo++
	return Company{
		ID:             id,
		Name:           fmt.Sprintf("N%03d", g.rng.Intn(40)),
		Raising:        g.rng.Intn(2) == 0,
		HasVideo:       g.rng.Intn(3) == 0,
		HasFacebook:    g.rng.Intn(2) == 0,
		HasTwitter:     g.rng.Intn(4) != 0,
		Likes:          g.rng.Intn(1000),
		Tweets:         g.rng.Intn(500),
		Followers:      g.rng.Intn(2000),
		Funded:         g.rng.Intn(3) == 0,
		RoundCount:     g.rng.Intn(6),
		TotalRaisedUSD: int64(g.rng.Intn(5000000)),
	}
}

// mutate evolves prev into the next round's world: ~8% of entities
// disappear, ~25% drift, new ones arrive, and investor edge lists grow
// (including deliberate duplicate entries — the raw crawl allows them
// and the graph kernels dedupe).
func (g *worldGen) mutate(prev *FrozenSnapshot) *FrozenSnapshot {
	next := &FrozenSnapshot{Snapshot: prev.Snapshot + 1}
	for _, c := range prev.Companies {
		switch {
		case g.rng.Intn(12) == 0: // dropped
		case g.rng.Intn(4) == 0: // drifted
			c.Likes = g.rng.Intn(1000)
			c.Tweets += g.rng.Intn(50)
			if g.rng.Intn(3) == 0 {
				c.Raising = !c.Raising
			}
			if g.rng.Intn(5) == 0 {
				c.Funded = true
				c.RoundCount++
				c.TotalRaisedUSD += int64(g.rng.Intn(1000000))
			}
			next.Companies = append(next.Companies, c)
		default:
			next.Companies = append(next.Companies, c)
		}
	}
	for i := g.rng.Intn(len(prev.Companies)/8 + 2); i > 0; i-- {
		next.Companies = append(next.Companies, g.newCompany())
	}
	sort.Slice(next.Companies, func(i, j int) bool { return next.Companies[i].ID < next.Companies[j].ID })

	pick := func() string { return next.Companies[g.rng.Intn(len(next.Companies))].ID }
	for _, v := range prev.Investors {
		switch {
		case g.rng.Intn(12) == 0: // dropped
		case g.rng.Intn(3) == 0: // drifted: edge growth, occasional churn
			inv := append([]string(nil), v.Investments...)
			for j := g.rng.Intn(3); j > 0; j-- {
				inv = append(inv, pick())
			}
			if len(inv) > 0 && g.rng.Intn(6) == 0 {
				inv = inv[1:]
			}
			if g.rng.Intn(8) == 0 {
				inv = append(inv, inv...) // raw duplicates
			}
			v.Investments = inv
			v.Follows = g.rng.Intn(300)
			next.Investors = append(next.Investors, v)
		default:
			next.Investors = append(next.Investors, v)
		}
	}
	for i := g.rng.Intn(len(prev.Investors)/6 + 2); i > 0; i-- {
		id := fmt.Sprintf("inv-%04d", g.nextInv)
		g.nextInv++
		inv := make([]string, 0, 3)
		for j := g.rng.Intn(4); j > 0; j-- {
			inv = append(inv, pick())
		}
		next.Investors = append(next.Investors, Investor{ID: id, Investments: inv, Follows: g.rng.Intn(300)})
	}
	sort.Slice(next.Investors, func(i, j int) bool { return next.Investors[i].ID < next.Investors[j].ID })
	next.Graph = investorGraph(next.Investors)
	return next
}

func mustBlob(t *testing.T, st *store.Store, ns string) []byte {
	t.Helper()
	data, _, err := st.GetBlob(ns)
	if err != nil {
		t.Fatalf("get blob %s: %v", ns, err)
	}
	return data
}

// deltaEmpty reports whether the delta changes nothing.
func deltaEmpty(sd *SnapshotDelta) bool {
	return len(sd.CompanyUpserts) == 0 && len(sd.InvestorUpserts) == 0 &&
		len(sd.CompanyDrops) == 0 && len(sd.InvestorDrops) == 0
}

// TestDeltaRefreezeEquivalenceProperty is the headline gate of the
// delta subsystem: across world sizes, seeds and rounds, committing
// each round as a delta onto the previous snapshot must leave the store
// with frozen/snap-N and frozen/idx-N blobs byte-identical to a full
// refreeze of the same round — and every version must read back from
// its own artifact as the snapshot the refreeze holds, graph included.
func TestDeltaRefreezeEquivalenceProperty(t *testing.T) {
	const rounds = 3
	ctx := context.Background()
	for _, n := range []int{64, 512, 4096} {
		seeds := []int64{11, 22, 33}
		if n == 4096 && testing.Short() {
			seeds = seeds[:1]
		}
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				gen, world := newWorldGen(seed, n)
				full, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				inc, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				// Round 0: both stores freeze the full world.
				if err := CommitFrozen(ctx, full, world); err != nil {
					t.Fatal(err)
				}
				if err := CommitFrozen(ctx, inc, world); err != nil {
					t.Fatal(err)
				}
				applied := world
				for round := 1; round <= rounds; round++ {
					world = gen.mutate(world)
					if err := CommitFrozen(ctx, full, world); err != nil {
						t.Fatal(err)
					}
					sd := DiffFrozen(applied, world)
					if deltaEmpty(sd) {
						t.Fatalf("round %d: mutation schedule produced an empty delta", round)
					}
					applied, err = CommitDelta(ctx, inc, applied, sd)
					if err != nil {
						t.Fatal(err)
					}
					for _, ns := range []string{FrozenNamespace(round), IndexNamespace(round)} {
						if !bytes.Equal(mustBlob(t, full, ns), mustBlob(t, inc, ns)) {
							t.Fatalf("round %d: %s bytes diverge between delta-apply and full refreeze", round, ns)
						}
					}
					// The artifact holds no graph, so compare the applied
					// one with the graph a decode of the refreeze builds.
					refrozen, err := LoadFrozen(full, round)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(applied.Graph, refrozen.Graph) {
						t.Fatalf("round %d: delta-applied graph diverges from the refrozen one", round)
					}
				}
				if latest, err := LatestFrozen(inc); err != nil || latest != rounds {
					t.Fatalf("latest frozen = %d (%v), want %d", latest, err, rounds)
				}
				for v := 0; v <= rounds; v++ {
					fs, err := LoadFrozen(inc, v)
					if err != nil {
						t.Fatal(err)
					}
					want, err := LoadFrozen(full, v)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fs, want) {
						t.Fatalf("snapshot %d reads back differently from the refrozen artifact", v)
					}
				}
			})
		}
	}
}

// TestDeltaRoundtrip pins the codec: encode → decode must reproduce the
// delta exactly, including raw (duplicated, unsorted-within-row)
// investment lists.
func TestDeltaRoundtrip(t *testing.T) {
	sd := &SnapshotDelta{
		Base:   2,
		Target: 3,
		CompanyUpserts: []Company{
			{ID: "co-1", Name: "A", Raising: true, Likes: 7, TotalRaisedUSD: 12345},
			{ID: "co-3", Funded: true, RoundCount: 2},
		},
		InvestorUpserts: []Investor{
			{ID: "inv-1", Investments: []string{"co-3", "co-1", "co-3"}, Follows: 9},
			{ID: "inv-4", Investments: []string{}},
		},
		CompanyDrops:  []string{"co-2", "co-9"},
		InvestorDrops: []string{"inv-2"},
	}
	data, err := encodeDelta(sd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base != 2 || got.Target != 3 {
		t.Fatalf("meta = %d->%d, want 2->3", got.Base, got.Target)
	}
	if len(got.CompanyUpserts) != 2 || got.CompanyUpserts[0] != sd.CompanyUpserts[0] || got.CompanyUpserts[1] != sd.CompanyUpserts[1] {
		t.Fatalf("company upserts = %+v", got.CompanyUpserts)
	}
	if len(got.InvestorUpserts) != 2 || !investorEqual(got.InvestorUpserts[0], sd.InvestorUpserts[0]) || !investorEqual(got.InvestorUpserts[1], sd.InvestorUpserts[1]) {
		t.Fatalf("investor upserts = %+v", got.InvestorUpserts)
	}
	if strings.Join(got.CompanyDrops, ",") != "co-2,co-9" || strings.Join(got.InvestorDrops, ",") != "inv-2" {
		t.Fatalf("drops = %v / %v", got.CompanyDrops, got.InvestorDrops)
	}
}

// TestDeltaCodecCorruption mirrors the snapshot artifact's corruption
// suite for the delta codec: every tampering mode must fail loudly with
// the typed error, never decode to a plausible delta.
func TestDeltaCodecCorruption(t *testing.T) {
	valid, err := encodeDelta(&SnapshotDelta{
		Base:            0,
		Target:          1,
		CompanyUpserts:  []Company{{ID: "co-1", Likes: 3}, {ID: "co-2"}},
		InvestorUpserts: []Investor{{ID: "inv-1", Investments: []string{"co-1"}}},
		CompanyDrops:    []string{"co-7"},
	})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("flipped byte", func(t *testing.T) {
		// Offsets land in the section-count word, a section header and
		// payloads — all framing- or CRC-guarded. (Bytes 8-11 are the
		// container version word, covered by its own subtest.)
		for _, off := range []int{12, 16, len(valid) / 2, len(valid) - 3} {
			data := bytes.Clone(valid)
			data[off] ^= 0x20
			if _, err := decodeDelta(data); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("offset %d: err = %v, want ErrCorrupt", off, err)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 4, 12, len(valid) - 1} {
			if _, err := decodeDelta(valid[:n]); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("len %d: err = %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		data := bytes.Clone(valid)
		copy(data, "NOTFROZE")
		if _, err := decodeDelta(data); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad container version", func(t *testing.T) {
		data := bytes.Clone(valid)
		data[8] = 0xEE // container FormatVersion word
		if _, err := decodeDelta(data); err == nil || !strings.Contains(err.Error(), "format version") {
			t.Fatalf("err = %v, want unsupported-format-version error", err)
		}
	})
	t.Run("blob format version mismatch", func(t *testing.T) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutBlob(DeltaNamespace(1), snapshot.DeltaFormatVersion+1, valid); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDelta(st, 1); err == nil || !strings.Contains(err.Error(), "format") {
			t.Fatalf("LoadDelta = %v, want format-version error", err)
		}
	})
	t.Run("meta does not advance one snapshot", func(t *testing.T) {
		e := snapshot.NewEncoder()
		snapshot.EncodeDeltaMeta(e, 0, 1)
		data, err := e.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		d, err := snapshot.NewDecoder(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := snapshot.DecodeDeltaMeta(d); err != nil {
			t.Fatalf("valid meta rejected: %v", err)
		}
		for _, bad := range [][2]int64{{3, 5}, {-1, 0}, {4, 4}} {
			e := snapshot.NewEncoder()
			snapshot.EncodeDeltaMeta(e, bad[0], bad[1])
			data, err := e.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			d, err := snapshot.NewDecoder(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := snapshot.DecodeDeltaMeta(d); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("meta %d->%d: err = %v, want ErrCorrupt", bad[0], bad[1], err)
			}
		}
	})
	t.Run("unsorted upserts rejected", func(t *testing.T) {
		data, err := encodeDelta(&SnapshotDelta{
			Base: 0, Target: 1,
			CompanyUpserts: []Company{{ID: "co-2"}, {ID: "co-1"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeDelta(data); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("upsert and drop overlap rejected", func(t *testing.T) {
		data, err := encodeDelta(&SnapshotDelta{
			Base: 0, Target: 1,
			InvestorUpserts: []Investor{{ID: "inv-1"}},
			InvestorDrops:   []string{"inv-1"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeDelta(data); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

// TestApplyDeltaConflicts covers the typed apply-time failures: wrong
// base snapshot and tombstones referencing entities the base never had.
func TestApplyDeltaConflicts(t *testing.T) {
	_, world := newWorldGen(5, 32)

	t.Run("wrong base", func(t *testing.T) {
		sd := &SnapshotDelta{Base: 3, Target: 4}
		if _, err := ApplyDelta(world, sd); !errors.Is(err, ErrDeltaConflict) {
			t.Fatalf("err = %v, want ErrDeltaConflict", err)
		}
	})
	t.Run("unknown company tombstone", func(t *testing.T) {
		sd := &SnapshotDelta{Base: 0, Target: 1, CompanyDrops: []string{"co-99999"}}
		if _, err := ApplyDelta(world, sd); !errors.Is(err, ErrDeltaConflict) {
			t.Fatalf("err = %v, want ErrDeltaConflict", err)
		}
	})
	t.Run("unknown investor tombstone", func(t *testing.T) {
		sd := &SnapshotDelta{Base: 0, Target: 1, InvestorDrops: []string{"aaaa"}}
		if _, err := ApplyDelta(world, sd); !errors.Is(err, ErrDeltaConflict) {
			t.Fatalf("err = %v, want ErrDeltaConflict", err)
		}
	})
	t.Run("empty delta applies cleanly", func(t *testing.T) {
		next, err := ApplyDelta(world, &SnapshotDelta{Base: 0, Target: 1})
		if err != nil {
			t.Fatal(err)
		}
		a, err := EncodeFrozen(world)
		if err != nil {
			t.Fatal(err)
		}
		next.Snapshot = 0 // identical but for the tag
		b, err := EncodeFrozen(next)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("empty delta changed the snapshot")
		}
	})
}

// TestApplyDeltaGraphNeutral: a delta that never touches an investment
// row must reuse the base snapshot's frozen graph outright (the CSR
// rebuild is the dominant apply cost), while any delta that does touch
// one must rebuild — and in both cases the result must encode the same
// bytes as a full refreeze of the target.
func TestApplyDeltaGraphNeutral(t *testing.T) {
	_, world := newWorldGen(7, 64)

	t.Run("counter churn reuses the graph", func(t *testing.T) {
		up := world.Investors[3]
		up.Follows += 100
		co := world.Companies[5]
		co.Likes += 9
		sd := &SnapshotDelta{Base: 0, Target: 1,
			CompanyUpserts: []Company{co}, InvestorUpserts: []Investor{up}}
		next, err := ApplyDelta(world, sd)
		if err != nil {
			t.Fatal(err)
		}
		if next.Graph != world.Graph {
			t.Fatal("graph-neutral delta rebuilt the CSR instead of reusing it")
		}
		if next.Investors[3].Follows != up.Follows || next.Companies[5].Likes != co.Likes {
			t.Fatal("upserts not applied")
		}
	})
	t.Run("investment change rebuilds", func(t *testing.T) {
		up := world.Investors[3]
		up.Investments = append([]string{world.Companies[0].ID}, up.Investments...)
		sd := &SnapshotDelta{Base: 0, Target: 1, InvestorUpserts: []Investor{up}}
		next, err := ApplyDelta(world, sd)
		if err != nil {
			t.Fatal(err)
		}
		if next.Graph == world.Graph {
			t.Fatal("investment-touching delta must rebuild the graph")
		}
		want := investorGraph(next.Investors)
		if !reflect.DeepEqual(next.Graph, want) {
			t.Fatal("rebuilt graph diverges from a full refreeze")
		}
	})
	t.Run("new investor rebuilds", func(t *testing.T) {
		sd := &SnapshotDelta{Base: 0, Target: 1, InvestorUpserts: []Investor{
			{ID: "zz-new", Investments: []string{world.Companies[0].ID}},
		}}
		next, err := ApplyDelta(world, sd)
		if err != nil {
			t.Fatal(err)
		}
		if next.Graph == world.Graph {
			t.Fatal("delta adding an investor must rebuild the graph")
		}
	})
	t.Run("investor drop rebuilds", func(t *testing.T) {
		sd := &SnapshotDelta{Base: 0, Target: 1, InvestorDrops: []string{world.Investors[0].ID}}
		next, err := ApplyDelta(world, sd)
		if err != nil {
			t.Fatal(err)
		}
		if next.Graph == world.Graph {
			t.Fatal("delta dropping an investor must rebuild the graph")
		}
	})
}

// TestRecoverChainAfterCrash is the chaos gate for the delta commit
// protocol: a crash between persisting the delta blob and committing
// the applied snapshot (plus orphaned .tmp litter, reusing the store's
// crash-sim sweep pattern) must recover on reopen to the same chain as
// a fault-free run, byte for byte.
func TestRecoverChainAfterCrash(t *testing.T) {
	const rounds = 3
	crashAt := 2 // crash while committing round 2
	ctx := context.Background()

	commitRound := func(t *testing.T, st *store.Store, applied, world *FrozenSnapshot) *FrozenSnapshot {
		t.Helper()
		next, err := CommitDelta(ctx, st, applied, DiffFrozen(applied, world))
		if err != nil {
			t.Fatal(err)
		}
		return next
	}

	// Fault-free reference run.
	gen, world := newWorldGen(17, 96)
	rounds0 := []*FrozenSnapshot{world}
	for r := 1; r <= rounds; r++ {
		world = gen.mutate(world)
		rounds0 = append(rounds0, world)
	}
	ref, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := CommitFrozen(ctx, ref, rounds0[0]); err != nil {
		t.Fatal(err)
	}
	applied := rounds0[0]
	for r := 1; r <= rounds; r++ {
		applied = commitRound(t, ref, applied, rounds0[r])
	}

	// Crashing run over the identical world sequence.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := CommitFrozen(ctx, st, rounds0[0]); err != nil {
		t.Fatal(err)
	}
	applied = rounds0[0]
	for r := 1; r < crashAt; r++ {
		applied = commitRound(t, st, applied, rounds0[r])
	}
	// Crash window: the delta blob landed, the applied snapshot did not.
	sd := DiffFrozen(applied, rounds0[crashAt])
	data, err := encodeDelta(sd)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBlob(DeltaNamespace(crashAt), snapshot.DeltaFormatVersion, data); err != nil {
		t.Fatal(err)
	}
	// Litter the directory like a killed writer would.
	for _, orphan := range []string{"seg-09999.csg.tmp", "blob-09999.bin.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, orphan), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": reopen (sweeping the litter) and recover the chain.
	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, orphan := range []string{"seg-09999.csg.tmp", "blob-09999.bin.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, orphan)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("orphan %s survived the reopen sweep (stat err: %v)", orphan, err)
		}
	}
	recovered, err := RecoverChain(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != crashAt {
		t.Fatalf("recovered = %v, want [%d]", recovered, crashAt)
	}
	// Resume the remaining rounds as a fresh process would: from the
	// recovered frozen snapshot.
	applied, err = LoadFrozen(st, crashAt)
	if err != nil {
		t.Fatal(err)
	}
	for r := crashAt + 1; r <= rounds; r++ {
		applied = commitRound(t, st, applied, rounds0[r])
	}

	for r := 0; r <= rounds; r++ {
		for _, ns := range []string{FrozenNamespace(r), IndexNamespace(r)} {
			if !bytes.Equal(mustBlob(t, ref, ns), mustBlob(t, st, ns)) {
				t.Fatalf("round %d: %s diverges between crashed+resumed and fault-free runs", r, ns)
			}
		}
		if r > 0 && !bytes.Equal(mustBlob(t, ref, DeltaNamespace(r)), mustBlob(t, st, DeltaNamespace(r))) {
			t.Fatalf("round %d: delta artifact diverges between crashed+resumed and fault-free runs", r)
		}
	}

	// A fully committed chain recovers nothing.
	recovered, err = RecoverChain(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("second recovery = %v, want none", recovered)
	}
}
