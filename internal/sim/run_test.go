package sim

import (
	"context"

	"jetty/internal/engine"
	"jetty/internal/smp"
)

// runSingle is Run for a plan of at most one bank: its only result.
func runSingle(ctx context.Context, in Input, cfg smp.Config, plan Plan, report func(uint64)) (AppResult, error) {
	res, err := Run(ctx, in, cfg, plan, report)
	if err != nil {
		return AppResult{}, err
	}
	return res[0], nil
}

// submitOne schedules one run of in on cfg as a group of one.
func submitOne(r *Runner, in Input, cfg smp.Config, opt SampleOptions) *engine.Job {
	return r.Engine().SubmitGroup(GroupTask(in, []Member{{Key: Key(in, cfg, opt.Interval), Config: cfg}}, opt))[0]
}
