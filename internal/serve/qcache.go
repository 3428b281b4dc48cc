package serve

import (
	"container/list"
	"net/http"
	"strconv"
	"sync"
)

// Query-cache metrics, alongside the serving metrics in serve.go.
const (
	// MetricQueryCacheHits counts /v1 responses served from the
	// per-generation query cache.
	MetricQueryCacheHits = "routinglens_querycache_hits_total"
	// MetricQueryCacheMisses counts /v1 queries that had to compute.
	MetricQueryCacheMisses = "routinglens_querycache_misses_total"
	// MetricQueryCacheEvictions counts entries dropped by the LRU bound.
	MetricQueryCacheEvictions = "routinglens_querycache_evictions_total"
	// MetricQueryCacheEntries is the resident entry count.
	MetricQueryCacheEntries = "routinglens_querycache_entries"
)

// qentry is one cached query response: everything needed to replay it
// byte-identically — status, content type, body. Entries are immutable
// after insertion; replays write copies of nothing and share the body
// slice read-only.
type qentry struct {
	status int
	ctype  string
	body   []byte
}

// qcache is the per-generation query-response LRU in front of the /v1
// endpoints. Keys embed the design generation's sequence number
// ("<seq>|<endpoint>|<canonical params>"), which is the staleness
// proof: a request pinned to generation N can only ever look up — and
// store — keys prefixed N, so a response computed from generation N-1
// is unreachable the instant the last-good pointer swaps. The wholesale
// purge() on swap is therefore a memory-hygiene move, not a correctness
// requirement: dead generations' entries would otherwise linger until
// LRU pressure ages them out.
type qcache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// qitem is the list payload: key + entry, so eviction can unmap.
type qitem struct {
	key string
	e   *qentry
}

// newQCache builds a cache bounded to max entries (max >= 1).
func newQCache(max int) *qcache {
	return &qcache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// qkey canonicalizes one request's identity. Query has already
// normalized the parameters (prefixes re-rendered from their parsed
// form, defaults applied), so two spellings of the same query — e.g.
// reordered parameters — share an entry.
//
// The key reads "<seq>|<endpoint>|<format>|<router>|<src>><dst>"; it is
// built in one buffer because every query, hit or miss, computes it.
func qkey(seq int64, q Query) string {
	b := make([]byte, 0, 64)
	b = strconv.AppendInt(b, seq, 10)
	for _, part := range [...]string{q.Endpoint, q.Format, q.Router} {
		b = append(append(b, '|'), part...)
	}
	b = append(b, '|')
	if q.HasBlocks {
		b = append(append(append(b, q.Src.String()...), '>'), q.Dst.String()...)
	}
	return string(b)
}

// get returns the cached response for key, promoting it on hit.
func (c *qcache) get(key string) (*qentry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*qitem).e, true
}

// put stores one response, returning how many entries were evicted.
func (c *qcache) put(key string, e *qentry) (evicted int) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*qitem).e = e
		c.ll.MoveToFront(el)
		return 0
	}
	c.items[key] = c.ll.PushFront(&qitem{key: key, e: e})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		it := back.Value.(*qitem)
		c.ll.Remove(back)
		delete(c.items, it.key)
		evicted++
	}
	return evicted
}

// purge empties the cache (on every generation swap).
func (c *qcache) purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
}

// len returns the resident entry count.
func (c *qcache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// serveCached replays one cached response.
func (e *qentry) serveTo(w http.ResponseWriter) {
	if e.ctype != "" {
		w.Header().Set("Content-Type", e.ctype)
	}
	w.Header().Set("X-Cache", "hit")
	w.WriteHeader(e.status)
	w.Write(e.body)
}
