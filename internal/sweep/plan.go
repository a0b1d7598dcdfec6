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
// filter passes instead of 16 full runs.
//
// The grouping key is content-addressed, like everything else in the
// pipeline: the cell's own fingerprint recomputed over the FILTERLESS
// machine config. Two cells agree on that base fingerprint exactly
// when they agree on everything but the filter bank — which is exactly
// when one stream serves both.

// PlanUnits partitions cells into fusable groups — the engine's
// indivisible scheduling units, and so a coordinator's dispatch units.
// Each group is a list of ascending cell indices sharing one reference
// stream; shipping a whole group to one worker preserves the fusion win
// remotely.
func PlanUnits(spec Spec, cells []Cell) [][]int {
	return planGroups(spec.normalize(), cells)
}

// planGroups partitions cells into fusable groups: each group is a
// list of ascending cell indices sharing one reference stream, in
// first-appearance order. NoFuse makes every cell a group of its own.
func planGroups(spec Spec, cells []Cell) [][]int {
	if spec.NoFuse {
		out := make([][]int, len(cells))
		for i := range cells {
			out[i] = []int{i}
		}
		return out
	}
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
