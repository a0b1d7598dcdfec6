package sweep

import (
	"jetty/internal/sim"
)

// Fused group planning. Cells that differ only in their filter group —
// same reference stream (workload + scale + seed, or trace), same
// machine geometry — measure the exact same simulation with different
// observer banks attached, so the planner fuses them onto ONE pass
// with every bank riding along (sim.Run with one Plan bank per cell). A 16-variant
// "each"-mode filter axis then costs one simulation plus 16 cheap
// filter passes instead of 16 full runs. Fusion is the only schedule: a
// cell with a stream of its own is simply a unit of one.
//
// The grouping key is content-addressed, like everything else in the
// pipeline: the cell's own fingerprint recomputed over the FILTERLESS
// machine config. Two cells agree on that base fingerprint exactly
// when they agree on everything but the filter bank — which is exactly
// when one stream serves both.

// PlanUnits partitions cells into fusable units — the engine's
// indivisible scheduling units, and so a coordinator's dispatch units.
// Each unit is a list of ascending cell indices sharing one reference
// stream, in first-appearance order; shipping a whole unit to one
// worker preserves the fusion win remotely.
func PlanUnits(cells []Cell) [][]int {
	byBase := make(map[string]int)
	var out [][]int
	for i, c := range cells {
		base := sim.Key(c.in, c.cfg.WithoutFilters(), 0)
		g, ok := byBase[base]
		if !ok {
			g = len(out)
			byBase[base] = g
			out = append(out, nil)
		}
		out[g] = append(out[g], i)
	}
	return out
}
