package sweep

import (
	"context"
	"fmt"
	"sync"
	"time"

	"jetty/internal/engine"
	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/sim"
)

// Task kinds: the telemetry label (engine.GroupTask.Kind) each unit
// carries, so jettyd's per-kind latency histograms and slow-job logs
// distinguish generated runs from trace replays and sweep cells.
const (
	KindWorkload = "workload" // generator-driven app run
	KindTrace    = "trace"    // stored-trace replay
	KindSweep    = "sweep"    // sweep cell (the default)
	KindFused    = "fused"    // fused multi-bank group run (one pass, N cells)
)

// Sweep is one submitted sweep, or the share of one that
// Submission.Cells selects: its cells scheduled on the engine, with
// per-cell status observable while they run. Build one with Submit.
type Sweep struct {
	spec   Spec
	tenant string
	cells  []Cell // scheduled cells, in request order
	jobs   []*engine.Job
	fused  int

	doneOnce sync.Once
	done     chan struct{}
}

// Submission says who submitted a sweep, which of its cells run and
// how they report.
type Submission struct {
	// Origin is a correlation token stamped onto every cell's engine task
	// (jettyd passes the submitting HTTP request's ID), so cell telemetry
	// ties back to the request that started the sweep.
	Origin string
	// Tenant is stamped onto every cell's engine task, so the engine's
	// fair-share queue schedules the cells under the submitting tenant
	// and cell telemetry carries the tenant label. Empty means the
	// default tenant.
	Tenant string
	// Kind is the engine task kind of units of one cell; empty means
	// KindSweep. jettyd's per-kind latency histograms tell sweep cells
	// from experiment runs (KindWorkload, KindTrace) by it. Units of
	// several cells are always KindFused.
	Kind string
	// Cells, if non-nil, selects the expansion indices to run, strictly
	// ascending; nil runs every cell. A cluster worker runs one
	// coordinator unit this way. The selection replans fusion among its
	// own cells, so cells sharing a reference stream still fuse when the
	// coordinator split their siblings across other workers.
	Cells []int
	// OnWindow, if set, receives each timeline window of a sampled cell
	// that executes for this submission, tagged with the cell's Index, on
	// the simulation goroutine. Windows arrive exactly as the cell's
	// retained timeline will hold them. The pointer is borrowed: copy or
	// encode it before returning.
	OnWindow func(cell int, w *metrics.Window)
	// Remote, if set, runs each planned unit somewhere else instead of
	// simulating it here: a unit's engine run calls Remote with the cells
	// the engine did not satisfy from its cache, store or in-flight work,
	// in ascending Index order, and expects one result per cell in that
	// order. The engine admits, caches, coalesces and schedules the unit
	// exactly as it would a local one. A cluster coordinator sets it to
	// dispatch units to its workers.
	Remote func(ctx context.Context, unit []Cell) ([]sim.AppResult, error)
}

// Submit expands the spec and schedules the selected cells on the
// engine, one group task per planned unit (PlanUnits). Submission never
// blocks on the work itself; identical cells (within this sweep, across
// sweeps, or against past runs) are deduplicated by the engine's
// in-flight coalescing and result cache.
func Submit(eng *engine.Engine, spec Spec, traces TraceResolver, sub Submission) (*Sweep, error) {
	cells, err := spec.Expand(traces)
	if err != nil {
		return nil, err
	}
	if sub.Cells != nil {
		picked := make([]Cell, len(sub.Cells))
		for k, i := range sub.Cells {
			if i < 0 || i >= len(cells) {
				return nil, fmt.Errorf("sweep: cell index %d out of range [0, %d)", i, len(cells))
			}
			if k > 0 && i <= sub.Cells[k-1] {
				return nil, fmt.Errorf("sweep: cell indices must be strictly ascending")
			}
			picked[k] = cells[i]
		}
		cells = picked
	}
	s := &Sweep{spec: spec.normalize(), tenant: sub.Tenant, cells: cells, jobs: make([]*engine.Job, len(cells))}
	kind := sub.Kind
	if kind == "" {
		kind = KindSweep
	}
	for _, unit := range PlanUnits(cells) {
		// Every cell in a unit measures the same reference stream on the
		// same machine — only the observer bank differs — so the whole
		// unit runs as one simulation pass (see plan.go). Member keys are
		// the cells' own content addresses: the engine caches each member
		// under the key a run of that cell alone would use, so results
		// interoperate through the cache whatever the unit shapes.
		members := make([]engine.GroupMember, len(unit))
		for k, i := range unit {
			members[k] = engine.GroupMember{Key: cells[i].Key, Total: cells[i].Total()}
		}
		g := engine.GroupTask{Kind: kind, Origin: sub.Origin, Tenant: sub.Tenant, Members: members, Run: s.unitRun(sub, unit)}
		if len(unit) > 1 {
			g.Kind = KindFused
			s.fused++
		}
		for k, j := range eng.SubmitGroup(g) {
			s.jobs[unit[k]] = j
		}
	}
	return s, nil
}

// unitRun is the engine run of one planned unit (indices into s.cells).
// The engine hands it the members it did not satisfy from its cache,
// store or in-flight work; their cells go to sub.Remote, or run here as
// one simulation pass with only their banks attached, so canceled and
// cache-satisfied members cost nothing.
func (s *Sweep) unitRun(sub Submission, unit []int) func(context.Context, []int, func(uint64)) ([]any, error) {
	return func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
		picked := make([]Cell, len(live))
		for k, i := range live {
			picked[k] = s.cells[unit[i]]
		}
		var results []sim.AppResult
		var err error
		if sub.Remote != nil {
			results, err = sub.Remote(ctx, picked)
		} else {
			banks := make([][]jetty.Config, len(picked))
			for k, c := range picked {
				banks[k] = c.cfg.Filters
			}
			plan := sim.Plan{Banks: banks, Sample: sim.SampleOptions{Interval: s.spec.Interval}}
			if sub.OnWindow != nil {
				plan.Sample.OnWindow = func(k int, w *metrics.Window) { sub.OnWindow(picked[k].Index, w) }
			}
			results, err = sim.Run(ctx, picked[0].in, picked[0].cfg.WithoutFilters(), plan, report)
		}
		if err != nil {
			return nil, err
		}
		out := make([]any, len(results))
		for k, r := range results {
			out[k] = r
		}
		return out, nil
	}
}

// Cells returns the scheduled cells in request order.
func (s *Sweep) Cells() []Cell { return s.cells }

// FusedGroups returns how many multi-cell fused group tasks the sweep
// scheduled (0 when every unit holds one cell).
func (s *Sweep) FusedGroups() int { return s.fused }

// UnfinishedCells counts cells still queued or running (the service's
// admission and per-tenant cell-quota accounting; allocates nothing).
func (s *Sweep) UnfinishedCells() int {
	n := 0
	for _, j := range s.jobs {
		if !j.State().Terminal() {
			n++
		}
	}
	return n
}

// Done returns a channel that closes once every cell is terminal (done,
// failed or canceled); the first call on a finished sweep returns it
// closed. Unlike Wait and Results, it cancels nothing.
func (s *Sweep) Done() <-chan struct{} {
	s.doneOnce.Do(func() {
		s.done = make(chan struct{})
		if s.UnfinishedCells() == 0 {
			close(s.done)
			return
		}
		go func() {
			for _, j := range s.jobs {
				<-j.Done()
			}
			close(s.done)
		}()
	})
	return s.done
}

// Cancel withdraws every cell's handle. Cells shared with other
// submitters keep running for them; exclusive cells stop.
func (s *Sweep) Cancel() {
	for _, j := range s.jobs {
		j.Cancel()
	}
}

// Results blocks until every cell finishes and returns the raw per-cell
// results, aligned with Cells() (a cluster worker returns these). On
// error (ctx expires or a cell fails) the remaining handles are
// released.
func (s *Sweep) Results(ctx context.Context) ([]sim.AppResult, error) {
	results := make([]sim.AppResult, len(s.jobs))
	for k, j := range s.jobs {
		v, err := j.Wait(ctx)
		if err != nil {
			c := s.cells[k]
			s.Cancel()
			return nil, fmt.Errorf("sweep: cell %d (%s on %s): %w", c.Index, c.Workload, c.Machine, err)
		}
		results[k] = v.(sim.AppResult).Clone()
	}
	return results, nil
}

// Spec returns the (normalized) spec the sweep runs.
func (s *Sweep) Spec() Spec { return s.spec }

// Tenant returns the tenant identity the sweep was submitted under (""
// for the default tenant).
func (s *Sweep) Tenant() string { return s.tenant }

// CellStatus is one cell's progress snapshot, including the lifecycle
// timing breakdown (queue wait, run time, disposition) and the origin
// request ID that created the cell's execution.
type CellStatus struct {
	Index       int     `json:"index"`
	Workload    string  `json:"workload"`
	Machine     string  `json:"machine"`
	Repeat      int     `json:"repeat"`
	Key         string  `json:"key"`
	State       string  `json:"state"`
	Done        uint64  `json:"done"`
	Total       uint64  `json:"total"`
	CacheHit    bool    `json:"cache_hit,omitempty"`
	Disposition string  `json:"disposition,omitempty"`
	Origin      string  `json:"origin,omitempty"`
	Tenant      string  `json:"tenant,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	RunMS       float64 `json:"run_ms,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// Status is the aggregate progress snapshot of a sweep.
type Status struct {
	Name      string       `json:"name,omitempty"`
	Tenant    string       `json:"tenant,omitempty"`
	State     string       `json:"state"` // queued|running|done|failed|canceled
	Cells     int          `json:"cells"`
	Finished  int          `json:"finished"`
	CacheHits int          `json:"cache_hits"`
	Done      uint64       `json:"done"`
	Total     uint64       `json:"total"`
	Fraction  float64      `json:"fraction"`
	Cell      []CellStatus `json:"cell_status,omitempty"`
	// PartialMetrics are per-filter metrics folded over only the cells
	// done so far: the streaming partial aggregate of a running sweep.
	// Detailed snapshots only; empty before the first cell and once
	// every cell is done (the full Result carries them then).
	PartialMetrics []Metric `json:"partial_metrics,omitempty"`
}

// Status snapshots every cell and aggregates. detailed includes the
// per-cell slice and the partial metrics; false keeps the snapshot
// allocation-light for hot polling loops.
func (s *Sweep) Status(detailed bool) Status {
	out := Status{Name: s.spec.Name, Tenant: s.tenant, Cells: len(s.cells)}
	counts := map[engine.State]int{}
	for i, j := range s.jobs {
		js := j.Status()
		counts[js.State]++
		out.Done += js.Done
		out.Total += js.Total
		if js.State.Terminal() {
			out.Finished++
		}
		if js.CacheHit {
			out.CacheHits++
		}
		if detailed {
			c := s.cells[i]
			out.Cell = append(out.Cell, CellStatus{
				Index:       c.Index,
				Workload:    c.Workload,
				Machine:     c.Machine,
				Repeat:      c.Repeat,
				Key:         js.Key,
				State:       js.State.String(),
				Done:        js.Done,
				Total:       js.Total,
				CacheHit:    js.CacheHit,
				Disposition: js.Disposition,
				Origin:      js.Origin,
				Tenant:      js.Tenant,
				QueueWaitMS: durationMS(js.QueueWait),
				RunMS:       durationMS(js.Run),
				Error:       js.Err,
			})
		}
	}
	switch {
	case counts[engine.Failed] > 0:
		out.State = "failed"
	case counts[engine.Canceled] > 0:
		out.State = "canceled"
	case counts[engine.Running] > 0 || (counts[engine.Queued] > 0 && counts[engine.Done] > 0):
		out.State = "running"
	case counts[engine.Queued] > 0:
		out.State = "queued"
	default:
		out.State = "done"
	}
	if out.Total > 0 {
		out.Fraction = float64(out.Done) / float64(out.Total)
	}
	if out.State == "done" {
		out.Fraction = 1
	}
	if done := counts[engine.Done]; detailed && done > 0 && done < len(s.cells) {
		out.PartialMetrics = s.partialMetrics()
	}
	return out
}

// partialMetrics folds the cells done so far.
func (s *Sweep) partialMetrics() []Metric {
	var cells []Cell
	var results []sim.AppResult
	for i, j := range s.jobs {
		if j.State() == engine.Done {
			// A done job's result is final, and fold only reads it.
			res, _ := j.Wait(context.Background())
			cells = append(cells, s.cells[i])
			results = append(results, res.(sim.AppResult))
		}
	}
	return fold(s.spec, cells, results).Metrics
}

// durationMS renders a duration as fractional milliseconds for JSON.
func durationMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// Wait blocks until every cell finishes (or ctx expires / a cell fails;
// then the remaining handles are released) and folds the results.
func (s *Sweep) Wait(ctx context.Context) (*Result, error) {
	results, err := s.Results(ctx)
	if err != nil {
		return nil, err
	}
	return fold(s.spec, s.cells, results), nil
}

// Run is Submit + Wait: the synchronous entry point (the simplest way
// to run a study from Go).
func Run(ctx context.Context, eng *engine.Engine, spec Spec, traces TraceResolver) (*Result, error) {
	s, err := Submit(eng, spec, traces, Submission{})
	if err != nil {
		return nil, err
	}
	return s.Wait(ctx)
}
