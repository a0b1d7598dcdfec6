package sim

import (
	"testing"

	"jetty/internal/workload"
)

// TestKeyGolden pins the exact content addresses of generator and trace
// runs, unsampled and sampled. The keys name every persisted result
// (-data-dir) and every cluster memo entry, so a change to any of these
// strings orphans all stored work: it must be a deliberate, versioned
// decision, never a side effect of a refactor.
func TestKeyGolden(t *testing.T) {
	cfg, err := bankConfig(4, []string{"HJ(IJ-10x4x7,EJ-32x4)", "EJ-32x4", "IJ-9x4x7"})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := workload.Lookup("Barnes")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.Scale(0.1)
	const digest = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	const interval = 4096

	gen := Input{Spec: sp}
	tr := Input{Trace: &TraceInput{Digest: digest}}
	for _, c := range []struct {
		name, got, want string
	}{
		{"generator", Key(gen, cfg, 0),
			"140ff54ea795d54204769ea638d69f6d118c379e2be73f3054e286d1baf34bf3"},
		{"generator sampled", Key(gen, cfg, interval),
			"140ff54ea795d54204769ea638d69f6d118c379e2be73f3054e286d1baf34bf3#tl4096"},
		{"trace", Key(tr, cfg, 0),
			"4b962452f22ca7d103c6a47d925074b69121df204d419b8a3606e64ed91f67aa"},
		{"trace sampled", Key(tr, cfg, interval),
			"4b962452f22ca7d103c6a47d925074b69121df204d419b8a3606e64ed91f67aa#tl4096"},
	} {
		if c.got != c.want {
			t.Errorf("%s key = %q, want %q", c.name, c.got, c.want)
		}
	}
}
