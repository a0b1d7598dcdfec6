package lru

import (
	"fmt"
	"testing"
)

func TestBasics(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestEviction(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // refresh a: b is now the LRU entry
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestRefreshExisting(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh in place, no growth, no eviction
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("Get(a) = %v, want 10", v)
	}
	c.Put("c", 3) // b is least recently used now
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted after a's refresh")
	}
}

// TestNonpositiveCapacityStoresNothing pins the "negative disables"
// contract of the -cache and memo capacities: an LRU with capacity ≤ 0
// stores nothing.
func TestNonpositiveCapacityStoresNothing(t *testing.T) {
	for _, capacity := range []int{0, -1, -4096} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			c := New[int](capacity)
			for i := 0; i < 4; i++ {
				c.Put(fmt.Sprintf("k%d", i), i)
			}
			if c.Len() != 0 {
				t.Fatalf("Len = %d; want 0 (a disabled LRU must hold nothing)", c.Len())
			}
			if _, ok := c.Get("k0"); ok {
				t.Fatal("Get hit on a disabled LRU")
			}
		})
	}
}

// TestWeightedBudget pins the weighted contract the stream memo relies
// on: eviction keeps the total weight within the budget, replacing an
// entry reweighs it, and a value heavier than the whole budget is not
// stored and evicts nothing.
func TestWeightedBudget(t *testing.T) {
	c := NewWeighted(10, func(s []byte) int { return len(s) })
	c.Put("a", make([]byte, 4))
	c.Put("b", make([]byte, 4))
	if c.Weight() != 8 || c.Len() != 2 {
		t.Fatalf("Weight, Len = %d, %d; want 8, 2", c.Weight(), c.Len())
	}
	c.Put("too-big", make([]byte, 11))
	if _, ok := c.Get("too-big"); ok || c.Len() != 2 {
		t.Fatalf("an over-budget value was stored or evicted others (Len %d)", c.Len())
	}
	c.Get("a")                  // b is least recently used now
	c.Put("c", make([]byte, 3)) // 11 > 10: evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if c.Weight() != 7 {
		t.Errorf("Weight = %d, want 7", c.Weight())
	}
	c.Put("a", make([]byte, 7)) // reweigh a in place: 7 + 3 = 10 fits
	if c.Weight() != 10 || c.Len() != 2 {
		t.Errorf("after reweighing: Weight, Len = %d, %d; want 10, 2", c.Weight(), c.Len())
	}
	c.Put("d", make([]byte, 10)) // evicts c, then a
	if c.Weight() != 10 || c.Len() != 1 {
		t.Errorf("Weight, Len = %d, %d; want 10, 1", c.Weight(), c.Len())
	}
}
