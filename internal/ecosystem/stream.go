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
// world; the streamed run retains only the entity skeletons (IDs, flags,
// roles, investment lists) generation itself still needs.
//
// Both paths share one generation core parameterized by an emitter, so
// the streamed records are identical to the in-memory world's entities
// by construction; the property suite checks it record by record.

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
// retain reports whether the world should keep entity references after
// emission (the in-memory path) or release them (the streaming path).
type emitter interface {
	startup(s *Startup) error
	user(u *User) error
	facebook(startupID string, p *FacebookProfile) error
	twitter(startupID string, p *TwitterProfile) error
	crunchbase(startupID string, p *CrunchBaseProfile) error
	retain() bool
}

// memEmitter is the in-memory world builder: profiles go into the world
// maps, entities stay on the world slices, nothing is released.
type memEmitter struct{ w *World }

func (m *memEmitter) startup(*Startup) error { return nil }
func (m *memEmitter) user(*User) error       { return nil }
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

// storeEmitter streams entities into sharded store namespaces.
type storeEmitter struct {
	ctx     context.Context
	writers map[string]*store.Writer
	stats   GenStats
}

func newStoreEmitter(ctx context.Context, st *store.Store, shards int) (*storeEmitter, error) {
	em := &storeEmitter{ctx: ctx, writers: map[string]*store.Writer{}}
	em.stats.Shards = shards
	for _, ns := range []string{NSGenStartups, NSGenUsers, NSGenFacebook, NSGenTwitter, NSGenCrunchBase} {
		w, err := st.Writer(ns, shards)
		if err != nil {
			em.abortAll()
			return nil, err
		}
		em.writers[ns] = w
	}
	return em, nil
}

func (se *storeEmitter) emit(ns, key string, v any, count *int64) error {
	if err := se.ctx.Err(); err != nil {
		return fmt.Errorf("ecosystem: generate to %s: %w", ns, err)
	}
	if err := se.writers[ns].Append(key, v); err != nil {
		return err
	}
	*count++
	return nil
}

func (se *storeEmitter) startup(s *Startup) error {
	return se.emit(NSGenStartups, s.ID, s, &se.stats.Startups)
}
func (se *storeEmitter) user(u *User) error {
	return se.emit(NSGenUsers, u.ID, u, &se.stats.Users)
}
func (se *storeEmitter) facebook(startupID string, p *FacebookProfile) error {
	return se.emit(NSGenFacebook, startupID, GenAugment[*FacebookProfile]{startupID, p}, &se.stats.Facebook)
}
func (se *storeEmitter) twitter(startupID string, p *TwitterProfile) error {
	return se.emit(NSGenTwitter, startupID, GenAugment[*TwitterProfile]{startupID, p}, &se.stats.Twitter)
}
func (se *storeEmitter) crunchbase(startupID string, p *CrunchBaseProfile) error {
	return se.emit(NSGenCrunchBase, startupID, GenAugment[*CrunchBaseProfile]{startupID, p}, &se.stats.CrunchBase)
}
func (se *storeEmitter) retain() bool { return false }

// abortAll discards every writer's uncommitted records, so a failed run
// leaves no torn namespaces behind.
func (se *storeEmitter) abortAll() {
	for _, w := range se.writers {
		w.Abort()
	}
}

// closeAll commits every writer, keeping the first error.
func (se *storeEmitter) closeAll() error {
	var first error
	for _, w := range se.writers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
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
	if err := cfg.Validate(); err != nil {
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
