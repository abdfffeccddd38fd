package ecosystem

import (
	"context"
	"fmt"

	"crowdscope/internal/store"
)

// Streaming generation. GenerateTo runs the exact same seeded
// generation as Generate — phase for phase, RNG draw for RNG draw — but
// emits each entity to a sharded store namespace the moment it is
// final, then releases it, instead of accumulating the whole world in
// memory. At paper scale the difference is the ~33M follow-edge strings
// and the social/CrunchBase profile maps, which dominate the in-memory
// world; the streamed run never makes a follow edge a string, and
// retains only what generation itself still reads (startup IDs and
// raising flags, each user until its follow pass ends).
//
// Both paths share one generation core parameterized by an emitter, so
// the streamed records are identical to the in-memory world's entities
// by construction; the property suite checks it payload by payload.

// Generated-world namespaces. All five are co-sharded by startup/user
// ID (augmentation profiles shard by their owning startup), so a
// per-shard join over them never needs records from another shard.
const (
	NSGenStartups   = "gen/startups"
	NSGenUsers      = "gen/users"
	NSGenFacebook   = "gen/facebook"
	NSGenTwitter    = "gen/twitter"
	NSGenCrunchBase = "gen/crunchbase"
)

// DefaultShards is the shard count GenerateTo uses when the config does
// not pick one.
const DefaultShards = 8

// GenAugment ties a generated profile to its owning startup, mirroring
// the crawler's augmentation records (which add only a snapshot tag).
type GenAugment[T any] struct {
	StartupID string `json:"startup_id"`
	Profile   T      `json:"profile"`
}

// GenStats summarizes a streamed generation run.
type GenStats struct {
	Startups   int64
	Users      int64
	Facebook   int64
	Twitter    int64
	CrunchBase int64
	// Shards is the shard count every gen/* namespace was written with.
	Shards int
}

// emitter receives each entity exactly once, after its final mutation.
// A user's follow edges arrive as index lists into World.Startups and
// World.Users (the generator's scratch, valid only during the call); the
// user's own FollowsStartups and FollowsUsers are unset. retain reports
// whether the world should keep entity references after emission (the
// in-memory path) or release them (the streaming path).
type emitter interface {
	startup(s *Startup) error
	user(u *User, startups, users []int32) error
	facebook(startupID string, p *FacebookProfile) error
	twitter(startupID string, p *TwitterProfile) error
	crunchbase(startupID string, p *CrunchBaseProfile) error
	retain() bool
}

// memEmitter is the in-memory world builder: profiles go into the world
// maps, entities stay on the world slices, nothing is released. A user's
// follow indices become the IDs of the world's own entities, so the
// world shares one string per ID.
type memEmitter struct{ w *World }

func (m *memEmitter) startup(*Startup) error { return nil }
func (m *memEmitter) user(u *User, startups, users []int32) error {
	if len(startups) > 0 {
		u.FollowsStartups = make([]string, len(startups))
		for k, i := range startups {
			u.FollowsStartups[k] = m.w.Startups[i].ID
		}
	}
	if len(users) > 0 {
		u.FollowsUsers = make([]string, len(users))
		for k, i := range users {
			u.FollowsUsers[k] = m.w.Users[i].ID
		}
	}
	return nil
}
func (m *memEmitter) facebook(_ string, p *FacebookProfile) error {
	m.w.Facebook[p.URL] = p
	return nil
}
func (m *memEmitter) twitter(_ string, p *TwitterProfile) error {
	m.w.Twitter[p.URL] = p
	return nil
}
func (m *memEmitter) crunchbase(_ string, p *CrunchBaseProfile) error {
	m.w.CrunchBase[p.URL] = p
	return nil
}
func (m *memEmitter) retain() bool { return true }

// genNamespaces is the order the streaming writers open and commit in;
// the ns* constants index it.
var genNamespaces = [...]string{NSGenStartups, NSGenUsers, NSGenFacebook, NSGenTwitter, NSGenCrunchBase}

const (
	nsStartups = iota
	nsUsers
	nsFacebook
	nsTwitter
	nsCrunchBase
)

// storeEmitter streams entities into sharded store namespaces. Each
// record is hand-encoded (encode.go) into one reused buffer and handed
// to its writer as raw bytes.
type storeEmitter struct {
	ctx     context.Context
	writers []*store.Writer // opened so far, in genNamespaces order
	buf     []byte
	stats   GenStats
}

func newStoreEmitter(ctx context.Context, st *store.Store, shards int) (*storeEmitter, error) {
	em := &storeEmitter{ctx: ctx}
	em.stats.Shards = shards
	for _, ns := range genNamespaces {
		w, err := st.Writer(ns, shards)
		if err != nil {
			em.abortAll()
			return nil, err
		}
		em.writers = append(em.writers, w)
	}
	return em, nil
}

// emit appends the record encoded in se.buf to namespace ns under key.
// The context is checked once per record.
func (se *storeEmitter) emit(ns int, key string, count *int64) error {
	if err := se.ctx.Err(); err != nil {
		return fmt.Errorf("ecosystem: generate to %s: %w", genNamespaces[ns], err)
	}
	if err := se.writers[ns].AppendRaw(key, se.buf); err != nil {
		return err
	}
	*count++
	return nil
}

func (se *storeEmitter) startup(s *Startup) error {
	se.buf = appendStartup(se.buf[:0], s)
	return se.emit(nsStartups, s.ID, &se.stats.Startups)
}
func (se *storeEmitter) user(u *User, startups, users []int32) error {
	se.buf = appendUser(se.buf[:0], u, startups, users)
	return se.emit(nsUsers, u.ID, &se.stats.Users)
}
func (se *storeEmitter) facebook(startupID string, p *FacebookProfile) error {
	se.buf = appendFacebook(se.buf[:0], startupID, p)
	return se.emit(nsFacebook, startupID, &se.stats.Facebook)
}
func (se *storeEmitter) twitter(startupID string, p *TwitterProfile) error {
	var err error
	if se.buf, err = appendTwitter(se.buf[:0], startupID, p); err != nil {
		return fmt.Errorf("ecosystem: encode %s record: %w", NSGenTwitter, err)
	}
	return se.emit(nsTwitter, startupID, &se.stats.Twitter)
}
func (se *storeEmitter) crunchbase(startupID string, p *CrunchBaseProfile) error {
	var err error
	if se.buf, err = appendCrunchBase(se.buf[:0], startupID, p); err != nil {
		return fmt.Errorf("ecosystem: encode %s record: %w", NSGenCrunchBase, err)
	}
	return se.emit(nsCrunchBase, startupID, &se.stats.CrunchBase)
}
func (se *storeEmitter) retain() bool { return false }

// abortAll discards every writer's uncommitted records, so a failed run
// leaves no torn namespaces behind.
func (se *storeEmitter) abortAll() {
	for _, w := range se.writers {
		w.Abort()
	}
}

// closeAll commits the writers in genNamespaces order. The first failed
// commit aborts every writer after it, so which namespaces a failed run
// committed is the same on every run: exactly those before the failure.
func (se *storeEmitter) closeAll() error {
	for i, w := range se.writers {
		if err := w.Close(); err != nil {
			for _, rest := range se.writers[i+1:] {
				rest.Abort()
			}
			return fmt.Errorf("ecosystem: commit %s: %w", genNamespaces[i], err)
		}
	}
	return nil
}

// GenerateTo streams a complete world into sharded store namespaces
// (gen/startups, gen/users, gen/facebook, gen/twitter, gen/crunchbase)
// instead of returning it in memory. The run is deterministic in Config
// exactly like Generate: for equal configs, the records GenerateTo
// commits are identical to the entities Generate returns. cfg.Shards
// picks the shard count (DefaultShards when zero). The context bounds
// the durable writes; cancellation abandons the run between records
// with only fully committed segments visible.
func GenerateTo(ctx context.Context, st *store.Store, cfg Config) (*GenStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	em, err := newStoreEmitter(ctx, st, shards)
	if err != nil {
		return nil, err
	}
	w := newWorld(cfg)
	if err := runGeneration(w, em); err != nil {
		em.abortAll()
		return nil, err
	}
	if err := em.closeAll(); err != nil {
		return nil, err
	}
	return &em.stats, nil
}
