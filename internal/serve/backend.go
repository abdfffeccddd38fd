package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"crowdscope/internal/core"
	"crowdscope/internal/index"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// Backend is the serving layer's view of persistent data: discover the
// newest frozen snapshot, load one or apply the delta that produced it,
// and read a namespace for queries. *StoreBackend implements it over a
// real store; the chaos suite wraps it with a deterministic fault
// injector.
type Backend interface {
	// LatestFrozen returns the largest snapshot tag with a committed
	// frozen artifact.
	LatestFrozen(ctx context.Context) (int, error)
	// LoadFrozen returns the snapshot's decoded frozen artifact.
	LoadFrozen(ctx context.Context, snap int) (*core.FrozenSnapshot, error)
	// ApplyDelta returns snapshot snap built by applying the
	// frozen/delta-snap artifact onto base, snapshot snap-1. Any error
	// makes a delta refresh fall back to LoadFrozen.
	ApplyDelta(ctx context.Context, base *core.FrozenSnapshot, snap int) (*core.FrozenSnapshot, error)
	// What queries read: ReadRecords streams a namespace's records under
	// the caller's context, ReadRows the planner-selected rows of an
	// indexed one, and TableIndex returns a namespace's secondary
	// indexes — (nil, nil) when it has none (the planner then scans).
	query.IndexedSource
}

// StoreBackend serves directly from a crawled store, projecting frozen
// snapshots through core.QuerySource's virtual namespaces. The source
// is built once and owns every decoded snapshot: LoadFrozen and
// ApplyDelta return its cached copy, so the snapshot a Server installs
// is the one its frozen/snap-N queries read.
type StoreBackend struct {
	Store *store.Store

	once sync.Once
	src  *core.QuerySource
}

func (b *StoreBackend) source() *core.QuerySource {
	b.once.Do(func() { b.src = &core.QuerySource{Store: b.Store} })
	return b.src
}

// LatestFrozen implements Backend. It first re-reads the store manifest
// so snapshots committed by another process (a crawler writing to the
// store this server serves from) become visible to the refresh poll. A
// reload refused with store.ErrWritersOpen is benign — an embedded
// caller holds an open writer on this handle mid-commit, and the
// current manifest view is still a consistent snapshot, so serving
// slightly behind is exactly the degradation contract. Any other reload
// failure means the manifest itself cannot be re-read and is surfaced,
// so the breaker and the front's health probe see a sick replica
// instead of one that silently stopped advancing.
func (b *StoreBackend) LatestFrozen(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("serve: latest frozen: %w", err)
	}
	if err := b.Store.Reload(); err != nil && !errors.Is(err, store.ErrWritersOpen) {
		return 0, fmt.Errorf("serve: latest frozen: %w", err)
	}
	return core.LatestFrozen(b.Store)
}

// LoadFrozen implements Backend.
func (b *StoreBackend) LoadFrozen(ctx context.Context, snap int) (*core.FrozenSnapshot, error) {
	return b.source().Frozen(ctx, snap)
}

// ApplyDelta implements Backend.
func (b *StoreBackend) ApplyDelta(ctx context.Context, base *core.FrozenSnapshot, snap int) (*core.FrozenSnapshot, error) {
	return b.source().ApplyDelta(ctx, base, snap)
}

// ReadRecords implements Backend.
func (b *StoreBackend) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(query.Record) error) error {
	return b.source().ReadRecords(ctx, ns, fields, fn)
}

// TableIndex implements Backend.
func (b *StoreBackend) TableIndex(ns string) (*index.TableIndex, error) {
	return b.source().TableIndex(ns)
}

// ReadRows implements Backend.
func (b *StoreBackend) ReadRows(ctx context.Context, ns string, rows []int32, fields [][]string, fn func(query.Record) error) error {
	return b.source().ReadRows(ctx, ns, rows, fields, fn)
}

// snapCache holds the last-good frozen snapshot behind a pointer swap.
// Readers always get a complete snapshot or nil; a failed reload never
// tears down what is already being served, it only marks the cache
// stale so responses can carry the X-CrowdScope-Stale header.
type snapCache struct {
	mu     sync.RWMutex
	cur    *core.FrozenSnapshot
	latest int  // newest snapshot tag observed in the store
	stale  bool // last refresh failed, or cur lags latest
}

// get returns the cached snapshot (nil when nothing has loaded yet) and
// whether it should be served as stale.
func (c *snapCache) get() (*core.FrozenSnapshot, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cur, c.stale
}

// swap installs a freshly loaded snapshot as last-good.
func (c *snapCache) swap(fs *core.FrozenSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur = fs
	if fs.Snapshot > c.latest {
		c.latest = fs.Snapshot
	}
	c.stale = c.cur.Snapshot < c.latest
}

// observeLatest records the newest snapshot tag seen in the store and
// re-derives staleness.
func (c *snapCache) observeLatest(latest int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if latest > c.latest {
		c.latest = latest
	}
	c.stale = c.cur == nil || c.cur.Snapshot < c.latest
}

// markStale records a failed refresh: whatever is cached stays served,
// flagged as possibly behind the store.
func (c *snapCache) markStale() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stale = true
}
