// Package lru is the content-addressed least-recently-used map behind
// both result caches of the system: the engine's in-memory L1 and the
// cluster coordinator's digest→result L2 memo.
package lru

import "container/list"

// LRU maps string keys to values, evicting the least recently used
// entry beyond its capacity. A capacity ≤ 0 stores nothing: Put is a
// no-op, which is how callers disable a tier without nil checks.
//
// An LRU is externally synchronized: callers use it under their own
// mutex.
type LRU[V any] struct {
	cap   int
	clone func(V) V
	order *list.List               // front = most recently used
	byKey map[string]*list.Element // value: *entry[V]
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty LRU holding at most capacity entries. clone, when
// non-nil, copies every value on the way in and on the way out, so
// neither the putter nor a getter can mutate a stored value; nil stores
// values as-is (callers must then treat them as immutable).
func New[V any](capacity int, clone func(V) V) *LRU[V] {
	return &LRU[V]{
		cap:   capacity,
		clone: clone,
		order: list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// Get returns the value stored under key, refreshing its recency.
func (c *LRU[V]) Get(key string) (V, bool) {
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return c.copy(el.Value.(*entry[V]).val), true
}

// Put inserts or refreshes a value, evicting the least recently used
// entry when over capacity.
func (c *LRU[V]) Put(key string, val V) {
	if c.cap <= 0 {
		return
	}
	val = c.copy(val)
	if el, ok := c.byKey[key]; ok {
		el.Value.(*entry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&entry[V]{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry[V]).key)
	}
}

// Len returns the number of stored entries.
func (c *LRU[V]) Len() int { return c.order.Len() }

func (c *LRU[V]) copy(v V) V {
	if c.clone == nil {
		return v
	}
	return c.clone(v)
}
