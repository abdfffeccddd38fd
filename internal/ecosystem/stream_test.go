package ecosystem

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"crowdscope/internal/store"
)

// mustJSON marshals for byte-level record comparison.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// keyed is an entity in emission order with the key its record routes by.
type keyed struct {
	key string
	v   any
}

// TestGenerateToMatchesGenerate is the streamed/in-memory identity
// property: for the same config, every payload GenerateTo commits must
// be byte-identical to json.Marshal of the corresponding entity Generate
// returns — same key order, same escaping — on the shard its key routes
// to, in emission order, with nothing missing or extra. It pins down
// that the hand-written encoders write what the reflective encoder
// would, that the emitter did not perturb the RNG draw sequence, and
// that emission points really are final-mutation points.
func TestGenerateToMatchesGenerate(t *testing.T) {
	cfg := NewConfig(42, 0.001)
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	st := mustOpen(t, t.TempDir())
	const k = 4
	cfg.Shards = k
	gs, err := GenerateTo(context.Background(), st, cfg)
	if err != nil {
		t.Fatalf("GenerateTo: %v", err)
	}
	if gs.Shards != k {
		t.Fatalf("stats.Shards = %d, want %d", gs.Shards, k)
	}
	if int(gs.Startups) != len(w.Startups) || int(gs.Users) != len(w.Users) ||
		int(gs.Facebook) != len(w.Facebook) || int(gs.Twitter) != len(w.Twitter) ||
		int(gs.CrunchBase) != len(w.CrunchBase) {
		t.Fatalf("stats %+v disagree with world (%d startups, %d users, %d fb, %d tw, %d cb)",
			gs, len(w.Startups), len(w.Users), len(w.Facebook), len(w.Twitter), len(w.CrunchBase))
	}

	// The world's entities in the order generation emits them: startups
	// and users by index, each profile with its owning startup.
	cbByStartup := map[string]*CrunchBaseProfile{}
	for _, p := range w.CrunchBase {
		cbByStartup[strings.TrimPrefix(p.ALLink, "https://angel.co/")] = p
	}
	want := map[string][]keyed{}
	for _, s := range w.Startups {
		want[NSGenStartups] = append(want[NSGenStartups], keyed{s.ID, s})
		if s.FacebookURL != "" {
			want[NSGenFacebook] = append(want[NSGenFacebook], keyed{s.ID, GenAugment[*FacebookProfile]{s.ID, w.Facebook[s.FacebookURL]}})
		}
		if s.TwitterURL != "" {
			want[NSGenTwitter] = append(want[NSGenTwitter], keyed{s.ID, GenAugment[*TwitterProfile]{s.ID, w.Twitter[s.TwitterURL]}})
		}
		if p := cbByStartup[s.ID]; p != nil {
			want[NSGenCrunchBase] = append(want[NSGenCrunchBase], keyed{s.ID, GenAugment[*CrunchBaseProfile]{s.ID, p}})
		}
	}
	for _, u := range w.Users {
		want[NSGenUsers] = append(want[NSGenUsers], keyed{u.ID, u})
	}

	for _, ns := range genNamespaces {
		if got, err := st.ShardCount(ns); err != nil || got != k {
			t.Fatalf("%s: ShardCount = %d, %v; want %d", ns, got, err, k)
		}
		wantShards := make([][]string, k)
		for _, e := range want[ns] {
			sh := store.ShardFor(e.key, k)
			wantShards[sh] = append(wantShards[sh], mustJSON(t, e.v))
		}
		for sh := 0; sh < k; sh++ {
			i := 0
			if err := st.ScanShard(ns, sh, func(payload []byte) error {
				if i >= len(wantShards[sh]) {
					t.Fatalf("%s shard %d: extra record %d: %s", ns, sh, i, payload)
				}
				if string(payload) != wantShards[sh][i] {
					t.Fatalf("%s shard %d record %d differs:\nstream: %s\nworld:  %s", ns, sh, i, payload, wantShards[sh][i])
				}
				i++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if i != len(wantShards[sh]) {
				t.Fatalf("%s shard %d: streamed %d records, world has %d", ns, sh, i, len(wantShards[sh]))
			}
		}
	}
}

// genListing lists "sha256  path" for MANIFEST.json and every file under
// gen/ in the store directory, sorted by path.
func genListing(t *testing.T, dir string) string {
	t.Helper()
	var lines []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel != "MANIFEST.json" && !strings.HasPrefix(rel, "gen/") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		lines = append(lines, hex.EncodeToString(sum[:])+"  "+rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// generateToDir streams the world of cfg into a fresh store and returns
// its directory.
func generateToDir(t *testing.T, cfg Config) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := GenerateTo(context.Background(), mustOpen(t, dir), cfg); err != nil {
		t.Fatalf("GenerateTo: %v", err)
	}
	return dir
}

// goldenGen are the streamed-world configs whose committed bytes are
// pinned, and the SHA-256 of each one's genListing, recorded at 805820c
// while every record still went through json.Marshal.
var goldenGen = []struct {
	seed   int64
	scale  float64
	shards int
	digest string
}{
	{42, 0.001, 4, "01b8107ef78cb19affb151d3134b4d74a70f46a8c1140dd6ac6fd67a1842e1b9"},
	{7, 0.002, 1, "1986535bc16d678612084f926f80110bac4926f6e7405b0f812d97efbfa5da61"},
	{448, 0.0005, 8, "6ebf8420920ab9f1d0342eb804505653da951ba1ec96c992a2ec25e63480120d"},
}

// TestGenerateToGoldenDigests pins the bytes GenerateTo commits — every
// gen/* segment file and the manifest — for three (seed, scale, K)
// configs, K=1 included.
func TestGenerateToGoldenDigests(t *testing.T) {
	for _, g := range goldenGen {
		cfg := NewConfig(g.seed, g.scale)
		cfg.Shards = g.shards
		listing := genListing(t, generateToDir(t, cfg))
		sum := sha256.Sum256([]byte(listing))
		if got := hex.EncodeToString(sum[:]); got != g.digest {
			t.Errorf("seed %d scale %g K=%d: committed bytes moved: digest %s, want %s\n%s",
				g.seed, g.scale, g.shards, got, g.digest, listing)
		}
	}
}

// assertNoGenWorld fails if any gen/* namespace is committed — in the
// handle's manifest or on disk — or any segment file is left in dir.
func assertNoGenWorld(t *testing.T, st *store.Store, dir string) {
	t.Helper()
	disk, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range append(st.Namespaces(), disk.Namespaces()...) {
		if strings.HasPrefix(ns, "gen/") {
			t.Fatalf("failed run committed %s", ns)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "gen", "*", "shard-*", "seg-*.csg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 0 {
		t.Fatalf("failed run left %d segment files, first %s", len(segs), segs[0])
	}
}

// assertRetryMatchesFresh runs GenerateTo again on the store a failed
// run left behind and checks it commits the bytes a fresh store gets.
func assertRetryMatchesFresh(t *testing.T, st *store.Store, dir string, cfg Config) {
	t.Helper()
	if _, err := GenerateTo(context.Background(), st, cfg); err != nil {
		t.Fatalf("GenerateTo after a failed run: %v", err)
	}
	if got, want := genListing(t, dir), genListing(t, generateToDir(t, cfg)); got != want {
		t.Fatalf("retry after a failed run committed other bytes than a fresh store:\n%s\nfresh:\n%s", got, want)
	}
}

// countdownCtx is a context whose Err reports cancellation from its
// n+1-th call on. GenerateTo checks Err once per record, so it cancels
// the stream at a chosen record.
type countdownCtx struct {
	context.Context
	n int64
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestGenerateToCancel cancels the stream halfway through the users —
// after every other namespace has all its records appended — and
// checks that the run fails without committing any part of the world:
// no gen/* namespace, no segment file, and a second run on the same
// store commits exactly what a fresh store gets.
func TestGenerateToCancel(t *testing.T) {
	cfg := NewConfig(1, 0.001)
	cfg.Shards = 4
	full, err := GenerateTo(context.Background(), mustOpen(t, t.TempDir()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := mustOpen(t, dir)
	ctx := &countdownCtx{context.Background(), full.Startups + full.Facebook + full.Twitter + full.CrunchBase + full.Users/2}
	_, err = GenerateTo(ctx, st, cfg)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), NSGenUsers) {
		t.Fatalf("GenerateTo canceled mid-users = %v, want a %s context.Canceled error", err, NSGenUsers)
	}
	assertNoGenWorld(t, st, dir)
	assertRetryMatchesFresh(t, st, dir, cfg)
}

// TestGenerateToFailedCommitCommitsNothing blocks the manifest's temp
// path with a directory, so the first commit — gen/startups, in the
// fixed namespace order — fails. The writers after it are aborted, not
// committed: no gen/* namespace and no segment file survives, every
// writer slot is released, and once the obstruction is gone a second
// run on the same store commits what a fresh store gets.
func TestGenerateToFailedCommitCommitsNothing(t *testing.T) {
	cfg := NewConfig(1, 0.001)
	cfg.Shards = 4
	dir := t.TempDir()
	st := mustOpen(t, dir)
	tmp := filepath.Join(dir, "MANIFEST.json.tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := GenerateTo(context.Background(), st, cfg)
	if err == nil || !strings.Contains(err.Error(), "commit "+NSGenStartups+":") {
		t.Fatalf("GenerateTo with the manifest blocked = %v, want the %s commit to fail", err, NSGenStartups)
	}
	assertNoGenWorld(t, st, dir)
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	assertRetryMatchesFresh(t, st, dir, cfg)
}

func mustOpen(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamedUserAllocs pins the streaming user path to O(1)
// allocations per record: a 250-follow user is encoded into the
// emitter's reused buffer and copied into its segment, never turned
// into 250 strings or marshaled by reflection.
func TestStreamedUserAllocs(t *testing.T) {
	em, err := newStoreEmitter(context.Background(), mustOpen(t, t.TempDir()), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer em.abortAll()
	u := &User{ID: "u7", Name: "Alex Chen", Role: RoleInvestor, Investments: []string{"s3", "s9"}}
	follows := make([]int32, 250)
	for i := range follows {
		follows[i] = int32(7 * i)
	}
	followsUsers := follows[:40]
	emit := func() {
		if err := em.user(u, follows, followsUsers); err != nil {
			t.Fatal(err)
		}
	}
	emit() // grows the buffer and opens the shard's segment
	if allocs := testing.AllocsPerRun(200, emit); allocs > 1 {
		t.Fatalf("emitting a 250-follow user allocates %.1f times, want O(1)", allocs)
	}
}

// TestGenerateToInvalidConfig rejects bad configs before touching the
// store.
func TestGenerateToInvalidConfig(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(1, 0)
	if _, err := GenerateTo(context.Background(), st, cfg); err == nil {
		t.Fatal("invalid config must fail")
	}
}
