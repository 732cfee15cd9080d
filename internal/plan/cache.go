package plan

import (
	"sync"

	"boolcube/internal/field"
)

// cacheKey identifies a compilation. Layouts are keyed by their canonical
// String form (field.Layout itself is not comparable); machine.Params is an
// all-scalar struct and participates directly.
type cacheKey struct {
	alg           Algorithm
	before, after string
	cfg           Config
}

// entry holds one compilation slot. The sync.Once lets concurrent callers
// of the same key share a single compile without holding the cache lock
// while the O(P·Q) work runs.
type entry struct {
	once sync.Once
	p    *Plan
	err  error
}

// Cache is a keyed, concurrency-safe plan cache with deterministic FIFO
// eviction. Cached plans are sealed at compile time, so handing the same
// *Plan to concurrent executors is safe; compile errors are cached too
// (they are deterministic functions of the key).
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*entry
	order   []cacheKey // insertion order, for eviction
}

// NewCache returns a cache bounded to at most capacity plans (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, entries: make(map[cacheKey]*entry)}
}

// Default is the process-wide cache used by the public Compile entry point
// and the experiment sweeps. It bounds the plan count, not bytes: 256 plans
// cover the whole experiment registry, which then stays resident for the
// life of the process. A plan retains its move-set — 12 bytes per run of
// local slots and about 56 bytes per (source, destination) pair, both sides
// together, with no per-element array — plus its flows or phases. At the
// end of cmd/experiments -all the cache holds 252 move-sets over 21 M
// elements in 35 MB; at 16 bytes per element they held 335 MB.
var Default = NewCache(256)

// Compile returns the cached plan for the key, compiling it at most once.
// Eviction is FIFO over insertion order; an evicted entry that a caller
// still holds stays valid (plans are immutable), it just stops being
// shared.
func (c *Cache) Compile(alg Algorithm, before, after field.Layout, cfg Config) (*Plan, error) {
	k := cacheKey{alg: alg, before: before.String(), after: after.String(), cfg: cfg}
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = &entry{}
		c.entries[k] = e
		c.order = append(c.order, k)
		for len(c.order) > c.cap {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if compileObserver != nil {
			compileObserver()
		}
		e.p, e.err = Compile(alg, before, after, cfg)
	})
	return e.p, e.err
}

// compileObserver, when non-nil, is invoked once per actual compilation
// (inside the sync.Once, before the work). Tests install it to assert the
// at-most-one-compile-per-key guarantee under concurrency; production code
// never sets it.
var compileObserver func()

// Len reports how many plans (or cached errors) the cache currently holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
