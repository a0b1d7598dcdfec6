package sim

import (
	"context"

	"jetty/internal/engine"
	"jetty/internal/jetty"
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

// groupOne is one run of in on cfg as an engine group of one, keyed
// the way a sweep keys the cell.
func groupOne(in Input, cfg smp.Config, opt SampleOptions) engine.GroupTask {
	return engine.GroupTask{
		Members: []engine.GroupMember{{Key: Key(in, cfg, opt.Interval), Total: in.Total()}},
		Run: func(ctx context.Context, _ []int, report func(uint64)) ([]any, error) {
			res, err := runSingle(ctx, in, cfg, Plan{Sample: opt}, report)
			return []any{res}, err
		},
	}
}

// submitOne schedules one run of in on cfg as a group of one.
func submitOne(eng *engine.Engine, in Input, cfg smp.Config, opt SampleOptions) *engine.Job {
	return eng.SubmitGroup(groupOne(in, cfg, opt))[0]
}

// waitResult waits for one job and returns a copy of its AppResult
// (engine-cached results are shared between submitters), releasing the
// handle on error.
func waitResult(ctx context.Context, j *engine.Job) (AppResult, error) {
	v, err := j.Wait(ctx)
	if err != nil {
		j.Cancel()
		return AppResult{}, err
	}
	return v.(AppResult).Clone(), nil
}

// bankConfig is the paper's subblocked machine with the named filter
// bank attached.
func bankConfig(cpus int, filterNames []string) (smp.Config, error) {
	filters, err := jetty.ParseAll(filterNames)
	if err != nil {
		return smp.Config{}, err
	}
	return smp.PaperConfig(cpus).WithFilters(filters...), nil
}
