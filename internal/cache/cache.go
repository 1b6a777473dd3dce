// Package cache is the server-level explanation cache: a bounded LRU of
// finished results keyed by a canonical request key, plus a
// singleflight-style flight registry so N concurrent identical requests
// admit ONE search and all wait on it.
//
// The paper's intended workload is interactive (§8.3.3): a user flags
// outliers in a UI, sweeps the c slider, and re-asks. Every re-ask used to
// run a full search from scratch; with this cache a repeated request is
// served instantly and a concurrent duplicate coalesces onto the in-flight
// job instead of spending worker budget twice.
//
// Keys are opaque strings built by the caller (the HTTP server). The
// convention used there — "<table>@<generation>|<hash of the canonical
// request>" — makes invalidation structural: replacing a table bumps its
// generation so stale keys can never be hit again, and InvalidatePrefix
// proactively frees the dead entries.
//
// All methods are safe for concurrent use.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/scorpiondb/scorpion/internal/obs"
)

// DefaultCapacity is the entry bound used when New receives a
// non-positive capacity.
const DefaultCapacity = 256

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits counts Get calls answered from a stored entry.
	Hits int64 `json:"hits"`
	// Misses counts Get calls that found nothing.
	Misses int64 `json:"misses"`
	// Coalesced counts Join calls that attached to an existing flight
	// instead of leading a new computation.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Invalidations counts entries dropped by InvalidatePrefix or Clear.
	Invalidations int64 `json:"invalidations"`
	// Entries is the current entry count.
	Entries int `json:"entries"`
	// Bytes is the summed size estimate of the stored entries.
	Bytes int64 `json:"bytes"`
	// Capacity is the entry bound.
	Capacity int `json:"capacity"`
}

// entry is one stored value.
type entry struct {
	key  string
	val  any
	size int64
}

// Cache is a bounded LRU with flight coalescing. Create one with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	flights  map[string]*Flight
	bytes    int64

	hits, misses, coalesced, evictions, invalidations int64
}

// New builds a cache bounded to capacity entries (<= 0 means
// DefaultCapacity).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*Flight),
	}
}

// Capacity returns the entry bound.
func (c *Cache) Capacity() int { return c.capacity }

// Get returns the value stored under key and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores val under key with the given size estimate, evicting the
// least recently used entries beyond the capacity bound.
func (c *Cache) Put(key string, val any, size int64) {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
	c.bytes += size
	for c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
}

// GetOrCreate returns the value under key, creating and storing mk()'s
// result when absent. mk runs under the cache lock — keep it cheap (the
// server uses it to allocate empty session shells, not to run searches).
func (c *Cache) GetOrCreate(key string, size int64, mk func() any) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry).val
	}
	val := mk()
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
	c.bytes += size
	for c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
	return val
}

// removeLocked unlinks one element; callers hold c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
}

// InvalidatePrefix drops every entry whose key starts with prefix and
// returns how many were dropped. The server invalidates "<table>@" when a
// table is uploaded over, replaced, or unloaded.
func (c *Cache) InvalidatePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry); len(e.key) >= len(prefix) && e.key[:len(prefix)] == prefix {
			c.removeLocked(el)
			n++
		}
		el = next
	}
	c.invalidations += int64(n)
	return n
}

// Clear drops every entry and returns how many were dropped. In-flight
// computations are not touched; they deregister themselves when they
// finish (their results will simply repopulate the cache).
func (c *Cache) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.bytes = 0
	c.invalidations += int64(n)
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Coalesced:     c.coalesced,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.ll.Len(),
		Bytes:         c.bytes,
		Capacity:      c.capacity,
	}
}

// EmitMetrics emits one consistent Stats snapshot through emit, for a
// scrape-time collector: the cache keeps its cheap private counters on the
// serving path, so there is no double accounting and no per-Get registry
// traffic. The name label distinguishes multiple caches in one process.
// Collectors call it on whichever cache is current, so a cache swapped at
// runtime (the server's ConfigureCache) is never pinned. Safe on a nil
// receiver (emits nothing).
func (c *Cache) EmitMetrics(emit obs.EmitFunc, name string) {
	if c == nil {
		return
	}
	st := c.Stats()
	emit("scorpion_cache_hits_total", "counter", float64(st.Hits), "cache", name)
	emit("scorpion_cache_misses_total", "counter", float64(st.Misses), "cache", name)
	emit("scorpion_cache_coalesced_total", "counter", float64(st.Coalesced), "cache", name)
	emit("scorpion_cache_evictions_total", "counter", float64(st.Evictions), "cache", name)
	emit("scorpion_cache_invalidations_total", "counter", float64(st.Invalidations), "cache", name)
	emit("scorpion_cache_entries", "gauge", float64(st.Entries), "cache", name)
	emit("scorpion_cache_bytes", "gauge", float64(st.Bytes), "cache", name)
}

// --- flights (request coalescing) --------------------------------------

// Flight is one in-progress computation of a cache key. The first caller
// to Join a key leads the flight: it starts the real work, Publishes a
// payload (the server publishes the admitted job) for followers to attach
// to, and Forgets the flight once the work reaches a terminal state.
// Followers Join the same key, read the payload, and wait on the shared
// work instead of admitting their own.
type Flight struct {
	c   *Cache
	key string

	published chan struct{} // closed once payload (or abandonment) is set
	payload   any

	forgotten atomic.Bool
}

// Join returns the flight registered under key, creating it when absent.
// leader is true for the caller that created the flight — that caller MUST
// eventually call Publish (or Abandon) and then Forget, or followers will
// block and future requests will coalesce onto a dead flight.
func (c *Cache) Join(key string) (f *Flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		c.coalesced++
		return f, false
	}
	f = &Flight{c: c, key: key, published: make(chan struct{})}
	c.flights[key] = f
	return f, true
}

// Publish hands followers the leader's payload (for the server: the
// admitted *jobs.Job every coalesced request waits on).
func (f *Flight) Publish(payload any) {
	f.payload = payload
	close(f.published)
}

// Abandon resolves the flight with no payload — the leader failed to start
// the work (e.g. the scheduler shed the job). Followers receive a nil
// payload and fall back to their own admission. The flight is forgotten.
func (f *Flight) Abandon() {
	close(f.published)
	f.Forget()
}

// Payload blocks until the leader Publishes or Abandons, then returns the
// payload (nil when abandoned).
func (f *Flight) Payload() any {
	<-f.published
	return f.payload
}

// Forget deregisters the flight so future Joins lead a fresh computation.
// Idempotent; a racing Join that already created a successor flight is
// left untouched.
func (f *Flight) Forget() {
	if !f.forgotten.CompareAndSwap(false, true) {
		return
	}
	f.c.mu.Lock()
	if cur, ok := f.c.flights[f.key]; ok && cur == f {
		delete(f.c.flights, f.key)
	}
	f.c.mu.Unlock()
}

// InFlight reports how many flights are currently registered.
func (c *Cache) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}
