// Package lru is the content-addressed least-recently-used map behind
// the system's memo tiers: the engine's in-memory result cache and the
// simulator's byte-bounded stream memo.
package lru

import "container/list"

// LRU maps string keys to values, evicting the least recently used
// entries once their total weight exceeds its capacity. Every entry
// weighs 1 unless the LRU was built with NewWeighted. A capacity ≤ 0
// stores nothing: Put is a no-op, which is how callers disable a tier
// without nil checks.
//
// An LRU is externally synchronized: callers use it under their own
// mutex.
type LRU[V any] struct {
	cap    int
	weigh  func(V) int              // nil: every entry weighs 1
	weight int                      // total weight of the stored entries
	order  *list.List               // front = most recently used
	byKey  map[string]*list.Element // value: *entry[V]
}

type entry[V any] struct {
	key    string
	val    V
	weight int
}

// New returns an empty LRU holding at most capacity entries. Values are
// stored as they are: callers treat them as immutable.
func New[V any](capacity int) *LRU[V] {
	return &LRU[V]{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// NewWeighted returns an empty LRU whose entries weigh weigh(v) each and
// together at most budget. A value heavier than the whole budget is not
// stored.
func NewWeighted[V any](budget int, weigh func(V) int) *LRU[V] {
	c := New[V](budget)
	c.weigh = weigh
	return c
}

// Get returns the value stored under key, refreshing its recency.
func (c *LRU[V]) Get(key string) (V, bool) {
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put inserts or replaces a value, evicting least recently used entries
// while the total weight exceeds the capacity.
func (c *LRU[V]) Put(key string, val V) {
	w := 1
	if c.weigh != nil {
		w = c.weigh(val)
	}
	if c.cap <= 0 || w > c.cap {
		return
	}
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*entry[V])
		c.weight += w - e.weight
		e.val, e.weight = val, w
		c.order.MoveToFront(el)
	} else {
		c.byKey[key] = c.order.PushFront(&entry[V]{key: key, val: val, weight: w})
		c.weight += w
	}
	// The new entry fits the capacity alone, so it is never evicted.
	for c.weight > c.cap {
		oldest := c.order.Back()
		e := c.order.Remove(oldest).(*entry[V])
		delete(c.byKey, e.key)
		c.weight -= e.weight
	}
}

// Len returns the number of stored entries.
func (c *LRU[V]) Len() int { return c.order.Len() }

// Weight returns the total weight of the stored entries.
func (c *LRU[V]) Weight() int { return c.weight }
