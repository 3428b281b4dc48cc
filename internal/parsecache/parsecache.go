// Package parsecache is the incremental-analysis memo under
// core.Analyzer: a concurrency-safe, bounded LRU mapping one
// configuration file's identity to its pure parse result, so that
// re-analyzing a network after a one-file edit re-parses only that file.
//
// Analyses now reuse the previous core.Result instead, keyed by KeyFor.
// The LRU stays only for the benchmark's layer replay (perfbench/layers);
// make tier1 fails if anything else calls New.
//
// The key is (dialect, file name, SHA-256 of the confio-normalized
// content):
//
//   - the content hash makes the entry self-invalidating — any edit
//     changes the hash, so a stale result can never be returned;
//   - normalization (CRLF/tab/NUL canonicalization) happens before
//     hashing, because both dialect front ends normalize the same way
//     and two files differing only in line endings parse identically;
//   - the dialect rides along because the same bytes parse differently
//     under a forced -dialect ios vs junos;
//   - the file name rides along because it leaks into the parse result
//     (Device.FileName, the hostname fallback for anonymized corpora,
//     and every Diagnostic.File), so two identically-byted files under
//     different names must not share an entry.
//
// The cache stores opaque values (the analyzer's parsed bundle); it
// knows nothing about devices or diagnostics, which keeps this package
// free of pipeline dependencies and makes the Salsa/Bazel-style
// contract explicit: key equality implies value equality, because the
// value is a pure function of the key.
//
// Eviction is plain LRU bounded both by entry count and by total cost
// (the caller passes one file's cost — its content length — with Put).
// Both bounds exist because production corpora mix 881 small router
// configs with megabyte pasted-certificate monsters: a count bound
// alone would let a few huge files pin unbounded memory, a cost bound
// alone would let a million tiny files grow the map without limit.
package parsecache

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"routinglens/internal/confio"
)

// Default bounds applied when New is given non-positive limits.
const (
	// DefaultMaxEntries comfortably holds the largest corpus network
	// (881 files) several times over.
	DefaultMaxEntries = 4096
	// DefaultMaxCost bounds the summed content bytes the cached parses
	// were derived from (256 MiB).
	DefaultMaxCost = 256 << 20
)

// Key identifies one file's parse: the dialect it was dispatched to,
// the name it was parsed under, and the SHA-256 of its normalized
// content. Keys are comparable and safe to use as map keys.
type Key struct {
	Dialect string
	Name    string
	Sum     [sha256.Size]byte
}

// KeyFor builds the cache key for one configuration file. The content
// is normalized (confio.Normalize) before hashing so the key is stable
// across CRLF/tab/NUL noise that the parsers canonicalize away anyway.
func KeyFor(dialect, name, content string) Key {
	return Key{
		Dialect: dialect,
		Name:    name,
		Sum:     sha256.Sum256([]byte(confio.Normalize(content))),
	}
}

// entry is one resident parse result. origin remembers which network
// paid for the parse (empty when the caller declared none), so a hit
// from a different network can be counted as cross-network sharing.
type entry struct {
	key    Key
	val    any
	cost   int64
	origin string
}

// Stats is a point-in-time snapshot of the cache's counters, used for
// gauges and for delta-based accounting across one analysis run.
type Stats struct {
	Entries   int
	Cost      int64
	Hits      int64
	Misses    int64
	Evictions int64
	// CrossHits counts hits where the reading origin differed from the
	// origin that stored the entry (both non-empty) — the proof that two
	// networks' identical boilerplate files share one parse.
	CrossHits int64
}

// Cache is a bounded, concurrency-safe LRU of parse results. The zero
// value is not usable; build one with New. A nil *Cache is valid
// everywhere and behaves as "always miss, never store", so callers can
// thread an optional cache without branching.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxCost    int64
	cost       int64
	ll         *list.List // front = most recently used
	items      map[Key]*list.Element
	hits       int64
	misses     int64
	evictions  int64
	crossHits  int64
}

// New builds a Cache bounded by maxEntries entries and maxCost summed
// cost; non-positive limits take the package defaults.
func New(maxEntries int, maxCost int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxCost <= 0 {
		maxCost = DefaultMaxCost
	}
	return &Cache{
		maxEntries: maxEntries,
		maxCost:    maxCost,
		ll:         list.New(),
		items:      make(map[Key]*list.Element),
	}
}

// Get returns the value stored under key and whether it was present,
// promoting a hit to most-recently-used.
func (c *Cache) Get(key Key) (any, bool) {
	return c.GetFrom(key, "")
}

// GetFrom is Get with an origin (typically a network name). A hit whose
// resident entry was stored by a different non-empty origin increments
// the cross-origin hit counter — the fleet server uses this to prove
// that networks sharing boilerplate configuration share parses.
func (c *Cache) GetFrom(key Key, origin string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	e := el.Value.(*entry)
	if origin != "" && e.origin != "" && e.origin != origin {
		c.crossHits++
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

// Put stores val under key with the given cost (clamped to >= 0) and
// returns how many entries were evicted to make room. Storing an
// existing key refreshes its value, cost, and recency. A single value
// costlier than the cache's whole budget is not admitted at all —
// evicting everything to hold one monster would just thrash.
func (c *Cache) Put(key Key, val any, cost int64) (evicted int) {
	return c.PutFrom(key, val, cost, "")
}

// PutFrom is Put with an origin recorded on the entry (see GetFrom).
// Refreshing an existing key keeps the original origin: the first
// network to pay for the parse stays the owner for accounting.
func (c *Cache) PutFrom(key Key, val any, cost int64, origin string) (evicted int) {
	if c == nil {
		return 0
	}
	if cost < 0 {
		cost = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxCost {
		return 0
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.cost += cost - e.cost
		e.val, e.cost = val, cost
		if e.origin == "" {
			e.origin = origin
		}
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, cost: cost, origin: origin})
		c.cost += cost
	}
	for (c.ll.Len() > c.maxEntries || c.cost > c.maxCost) && c.ll.Len() > 1 {
		c.removeOldest()
		evicted++
	}
	c.evictions += int64(evicted)
	return evicted
}

// removeOldest drops the least-recently-used entry; callers hold mu.
func (c *Cache) removeOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.cost -= e.cost
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Cost:      c.cost,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		CrossHits: c.crossHits,
	}
}

// Purge drops every entry (counters survive).
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[Key]*list.Element)
	c.cost = 0
}
