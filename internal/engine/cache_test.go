package engine

import (
	"context"
	"sync/atomic"
	"testing"
)

// countingCache submits keyed tasks to e and counts how often each one
// actually ran, so a test can tell a result-cache hit from a rerun.
type countingCache struct {
	t    *testing.T
	e    *Engine
	runs map[string]*atomic.Int32
}

func newCountingCache(t *testing.T, e *Engine) *countingCache {
	return &countingCache{t: t, e: e, runs: make(map[string]*atomic.Int32)}
}

// submit runs key to completion and reports whether it was a cache hit.
func (c *countingCache) submit(key string) bool {
	c.t.Helper()
	n, ok := c.runs[key]
	if !ok {
		n = new(atomic.Int32)
		c.runs[key] = n
	}
	j := c.e.Submit(Task{
		Key: key,
		Run: func(ctx context.Context, report func(uint64)) (any, error) {
			n.Add(1)
			return key, nil
		},
	})
	res, err := j.Wait(context.Background())
	if err != nil || res.(string) != key {
		c.t.Fatalf("submit(%s) = %v, %v", key, res, err)
	}
	return j.Status().CacheHit
}

// TestResultCacheLRUEviction: the engine's finished-result cache evicts
// the least recently used result, and a cache hit counts as a use.
func TestResultCacheLRUEviction(t *testing.T) {
	e := New(Options{Workers: 1, CacheEntries: 2})
	defer e.Close()
	c := newCountingCache(t, e)

	c.submit("a")
	c.submit("b")
	if !c.submit("a") { // refresh a: b is now the LRU entry
		t.Fatal("a should have been a cache hit")
	}
	c.submit("c") // evicts b
	if got := e.Stats().CacheEntries; got != 2 {
		t.Errorf("CacheEntries = %d, want 2", got)
	}
	for _, k := range []string{"a", "c"} {
		if !c.submit(k) {
			t.Errorf("%s should have survived", k)
		}
	}
	if c.submit("b") {
		t.Error("b should have been evicted")
	}
	if got := c.runs["b"].Load(); got != 2 {
		t.Errorf("b ran %d times, want 2", got)
	}
}

// TestResultCacheMinimumCapacity: the smallest enabled cache holds
// exactly one result, and a zero capacity means the default rather
// than a disabled cache.
func TestResultCacheMinimumCapacity(t *testing.T) {
	e := New(Options{Workers: 1, CacheEntries: 1})
	defer e.Close()
	c := newCountingCache(t, e)

	c.submit("a")
	c.submit("b") // evicts a
	if got := e.Stats().CacheEntries; got != 1 {
		t.Errorf("CacheEntries = %d, want 1", got)
	}
	if !c.submit("b") {
		t.Error("b should have been a cache hit")
	}
	if c.submit("a") {
		t.Error("a should have been evicted")
	}

	d := New(Options{Workers: 1, CacheEntries: 0})
	defer d.Close()
	dc := newCountingCache(t, d)
	for _, k := range []string{"a", "b", "c"} {
		dc.submit(k)
	}
	if got := d.Stats().CacheEntries; got != 3 {
		t.Errorf("CacheEntries with the default capacity = %d, want 3", got)
	}
}
