package main

import (
	"math"
	"testing"
)

// Every spec a run hands out must have its own content address: the
// truncated access budget has to differ, not just the scale.
func TestFreshSpecsAreDistinct(t *testing.T) {
	g := newSpecs(7)
	seen := map[uint64]bool{}
	for i := 0; i < offsets; i++ {
		refs := uint64(float64(luRefs) * g.fresh().Scale)
		if seen[refs] {
			t.Fatalf("spec %d repeats a budget of %d references", i, refs)
		}
		seen[refs] = true
	}
}

func TestSpecsFollowSeed(t *testing.T) {
	a, b, c := newSpecs(1), newSpecs(1), newSpecs(2)
	same, differ := true, false
	for i := 0; i < 16; i++ {
		x, y, z := a.fresh(), b.fresh(), c.fresh()
		same = same && x.Scale == y.Scale
		differ = differ || x.Scale != z.Scale
	}
	if !same || !differ {
		t.Fatalf("same seed identical: %v, other seed different: %v", same, differ)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestSeriesSumAndDelta(t *testing.T) {
	before := series{`x_sum{route="a"}`: 1, `x_sum{route="b"}`: 2}
	after := series{`x_sum{route="a"}`: 4, `x_sum{route="b"}`: 2, `x_sum{route="a/c"}`: 5, `y`: 3}
	d := delta(before, after)
	if got := d.sum("x_sum", `route="a"`); got != 3 {
		t.Errorf(`route="a" delta = %v, want 3`, got)
	}
	if got := d.sum("x_sum", ""); got != 8 {
		t.Errorf("total delta = %v, want 8", got)
	}
	if got := d.sum("y", ""); got != 3 {
		t.Errorf("unlabeled delta = %v, want 3", got)
	}
}
