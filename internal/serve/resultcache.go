package serve

import (
	"sync"
	"sync/atomic"
)

// DefaultResultCacheSize bounds the query result cache: entries per
// snapshot generation.
const DefaultResultCacheSize = 256

// resultCache memoizes marshalled query-route response bodies, keyed by
// (snapshot version, normalized statement). The snapshot version is
// carried by the generation, not the key: each hot-swap installs a
// fresh generation behind an atomic pointer (the registry idiom the
// snapshot cache also uses), orphaning every stale entry in one store.
// Readers that raced the swap finish against the old generation — they
// were computed against the old snapshot, so that is exactly right.
//
// Recency for LRU eviction is a logical counter: the serving layer is
// in the determinism lint set, so the cache never consults a clock.
type resultCache struct {
	gen atomic.Pointer[cacheGen]

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

type cacheGen struct {
	snap    int // snapshot version the entries were computed against
	mu      sync.Mutex
	tick    uint64
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	body []byte
	last uint64
}

func newResultCache() *resultCache {
	c := &resultCache{}
	c.gen.Store(&cacheGen{snap: -1, entries: map[string]*cacheEntry{}})
	return c
}

// get returns the cached response body for the statement under the
// current generation.
func (c *resultCache) get(key string) ([]byte, bool) {
	g := c.gen.Load()
	g.mu.Lock()
	defer g.mu.Unlock()
	ent, ok := g.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	g.tick++
	ent.last = g.tick
	c.hits.Add(1)
	return ent.body, true
}

// put stores a successful response body, evicting the least recently
// used entry when the generation is full.
func (c *resultCache) put(key string, body []byte) {
	g := c.gen.Load()
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.entries[key]; !ok && len(g.entries) >= DefaultResultCacheSize {
		var coldest string
		var coldestTick uint64
		first := true
		for k, e := range g.entries {
			if first || e.last < coldestTick {
				coldest, coldestTick, first = k, e.last, false
			}
		}
		delete(g.entries, coldest)
	}
	g.tick++
	g.entries[key] = &cacheEntry{body: body, last: g.tick}
}

// invalidate installs a fresh generation for the newly swapped-in
// snapshot, dropping every entry computed against the old one. Hit and
// miss counters restart with the generation; the invalidation counter
// is cumulative, counting the swaps themselves.
func (c *resultCache) invalidate(snap int) {
	old := c.gen.Swap(&cacheGen{snap: snap, entries: map[string]*cacheEntry{}})
	if old.snap != snap {
		c.invalidations.Add(1)
	}
	c.hits.Store(0)
	c.misses.Store(0)
}

// stats returns the counters and the live entry count.
func (c *resultCache) stats() (hits, misses, invalidations int64, entries int) {
	g := c.gen.Load()
	g.mu.Lock()
	defer g.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.invalidations.Load(), len(g.entries)
}
