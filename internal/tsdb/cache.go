package tsdb

import (
	"sync"
	"sync/atomic"
)

// Global decode-cache budget: age-based retention for decoded block
// payloads.
//
// PR 5's per-block memoization (block.cache) made warm scans ~1.0x raw
// speed, but every block a query ever touched stayed decoded forever —
// a month-long cold scan left the whole database resident at raw size.
// The decodeCache charges every cached payload against one global
// budget (Options.DecodeCacheBytes) and evicts cold payloads with a
// CLOCK second-chance sweep, so resident decoded bytes stay bounded
// while the hot working set keeps its pointer-load fast path.
//
// The hit path stays lock-free: a cached read is still a single
// atomic.Pointer load on the block plus setting the payload's ref bit.
// Only misses (decode + admit) and evictions take the cache mutex.

// defaultDecodeCacheBytes is the budget when Options.DecodeCacheBytes
// is zero: 64 MiB holds ~16.8M decoded numeric points of blocks at an
// exact fixed cadence whose floats are all float32-exact (whole numbers
// such as fan RPM), ~8.4M at that cadence otherwise (tenths, such as the
// simulated BMCs' temperatures and power), or ~4.2M of inexact blocks
// whose times drift from their start (stamped on arrival by the scrape
// and push receivers). Each payload is charged what it keeps
// (blockPayload.bytes: 8 B per numeric point in the block's regular
// time prefix, 16 B after it, 4 B less when its floats are kept as
// float32s, a Value cell plus string bytes per mixed value); slice
// headers and allocator slack are not counted.
// The budget is a working-set bound, not an allocator audit.
const defaultDecodeCacheBytes = 64 << 20

// cacheEntry tracks one admitted payload for the CLOCK sweep.
type cacheEntry struct {
	blk   *block
	p     *blockPayload
	bytes int64
}

// decodeCache is the global charge-accounted registry of decoded block
// payloads. Eviction is CLOCK second-chance: the hand sweeps the ring,
// clearing ref bits set by hits and evicting the first unreferenced
// entry, so anything touched since the last sweep survives one round.
type decodeCache struct {
	budget int64 // max resident payload bytes

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	purges    atomic.Int64
	resident  atomic.Int64

	mu      sync.Mutex
	entries map[*block]*cacheEntry
	ring    []*cacheEntry
	hand    int
}

// newDecodeCache builds a cache with the given budget.
func newDecodeCache(budget int64) *decodeCache {
	return &decodeCache{budget: budget, entries: make(map[*block]*cacheEntry)}
}

// hit records a lock-free cache hit: mark the payload recently used.
func (c *decodeCache) hit(p *blockPayload) {
	c.hits.Add(1)
	if !p.ref.Load() {
		p.ref.Store(true)
	}
}

// admit registers a freshly decoded payload and evicts until the
// budget holds. Racing decoders of the same block dedup on the entries
// map: the loser converges the block's decode memo back onto the
// winner's accounted payload (dropping its own duplicate), counts no
// miss, and still runs the eviction sweep — the sweep must run on
// every admit path, because a racing eviction of the winner can leave
// the budget violated at exactly the moment the loser arrives.
func (c *decodeCache) admit(blk *block, p *blockPayload) {
	bytes := p.bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[blk]; ok {
		blk.cache.Store(e.p)
		e.p.ref.Store(true)
	} else {
		c.misses.Add(1)
		e := &cacheEntry{blk: blk, p: p, bytes: bytes}
		c.entries[blk] = e
		c.ring = append(c.ring, e)
		c.resident.Add(bytes)
	}
	// CLOCK sweep: each pass either clears a ref bit or evicts, so the
	// loop terminates — in the worst case by evicting everything,
	// including the entry just admitted when it alone exceeds budget.
	for c.resident.Load() > c.budget && len(c.ring) > 0 {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		victim := c.ring[c.hand]
		if victim.p.ref.Load() {
			victim.p.ref.Store(false)
			c.hand++
			continue
		}
		c.evictLocked(c.hand)
	}
}

// evictLocked drops ring[i]: the block's decode memo is cleared so the
// next scan re-decodes (and re-admits). In-flight readers holding the
// payload pointer keep it alive until they finish; eviction only
// severs the block's reference.
func (c *decodeCache) evictLocked(i int) {
	c.removeLocked(i)
	c.evictions.Add(1)
}

// removeLocked is the shared removal core for eviction and purge.
func (c *decodeCache) removeLocked(i int) {
	victim := c.ring[i]
	victim.blk.cache.Store(nil)
	delete(c.entries, victim.blk)
	last := len(c.ring) - 1
	c.ring[i] = c.ring[last]
	c.ring[last] = nil
	c.ring = c.ring[:last]
	c.resident.Add(-victim.bytes)
}

// purgeDead removes cache entries whose block is no longer reachable
// from v. commit calls this after publishing a view whose derivation
// dropped sealed blocks: without it, dead blocks pin their payloads in
// entries/ring forever and keep charging resident against the budget —
// and since eviction only runs inside admit, a quiet database never
// reclaims them while CLOCK pressure evicts live blocks first.
//
// A scan still running against an older view can re-decode and
// re-admit a just-purged block; that readmission is bounded by the
// budget sweep and dies on the next purge, so it is tolerated rather
// than locked out.
func (c *decodeCache) purgeDead(v *dbView) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == 0 {
		return
	}
	live := make(map[*block]struct{}, len(c.entries))
	for _, sh := range v.shards {
		for _, sr := range sh.series {
			for _, f := range sr.fields {
				for _, blk := range f.col.blocks {
					if _, ok := c.entries[blk]; ok {
						live[blk] = struct{}{}
					}
				}
			}
		}
	}
	for i := 0; i < len(c.ring); {
		if _, ok := live[c.ring[i].blk]; ok {
			i++
			continue
		}
		c.removeLocked(i) // swap-removal refills i; do not advance
		c.purges.Add(1)
	}
}

// CacheStats is a point-in-time snapshot of the decode cache
// (DB.CacheStats): how the bounded cold-block cache is performing.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Purges        int64 `json:"purges"` // entries dropped because their block was deleted
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
	Entries       int   `json:"entries"`
}

// CacheStats reports the decode cache's counters.
func (db *DB) CacheStats() CacheStats {
	c := db.cache
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Purges:        c.purges.Load(),
		ResidentBytes: c.resident.Load(),
		BudgetBytes:   c.budget,
		Entries:       n,
	}
}
