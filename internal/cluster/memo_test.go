package cluster

import (
	"fmt"
	"testing"

	"jetty/internal/sim"
)

func memoResult(refs uint64) sim.AppResult {
	return sim.AppResult{Refs: refs, RemoteHitFrac: []float64{0.5}}
}

// TestMemoNonpositiveCapacityIsNoop pins the -cache-style "negative
// disables" contract: a memo with cap <= 0 stores nothing.
func TestMemoNonpositiveCapacityIsNoop(t *testing.T) {
	for _, capacity := range []int{0, -1, -4096} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			m := newMemo(capacity)
			for i := 0; i < 4; i++ {
				m.Put(fmt.Sprintf("k%d", i), memoResult(uint64(i)))
			}
			if m.Len() != 0 {
				t.Fatalf("Len = %d; want 0 (disabled memo must hold nothing)", m.Len())
			}
			if _, ok := m.Get("k0"); ok {
				t.Fatalf("Get hit on a disabled memo")
			}
		})
	}
}

func TestMemoLRUEviction(t *testing.T) {
	m := newMemo(2)
	m.Put("a", memoResult(1))
	m.Put("b", memoResult(2))
	if _, ok := m.Get("a"); !ok { // refresh a: b is now the eviction victim
		t.Fatal("a missing")
	}
	m.Put("c", memoResult(3))
	if m.Len() != 2 {
		t.Fatalf("Len = %d; want 2", m.Len())
	}
	if _, ok := m.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}

	// Overwrite refreshes in place, no growth.
	m.Put("a", memoResult(9))
	if m.Len() != 2 {
		t.Fatalf("Len after overwrite = %d; want 2", m.Len())
	}
	if res, ok := m.Get("a"); !ok || res.Refs != 9 {
		t.Fatalf("overwrite lost: %+v, %v", res, ok)
	}
}
