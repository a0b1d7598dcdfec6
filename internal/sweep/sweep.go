package sweep

import (
	"context"
	"fmt"
	"time"

	"jetty/internal/engine"
	"jetty/internal/metrics"
	"jetty/internal/sim"
)

// Sweep is one submitted sweep: every cell scheduled on the engine, with
// per-cell status observable while it runs. Build one with Submit.
type Sweep struct {
	CellSet
	spec   Spec
	tenant string
}

// Submission says who submitted a sweep and how its cells report.
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
	// Kind is the engine task kind of cells that run as a group of one;
	// empty means sim.KindSweep. jettyd's per-kind latency histograms
	// tell sweep cells from experiment runs (sim.KindWorkload,
	// sim.KindTrace) by it. Fused groups are always sim.KindFused.
	Kind string
	// OnWindow, if set, receives each timeline window of a sampled cell
	// that runs as a group of one and executes for this submission,
	// tagged with the cell's Index, on the simulation goroutine. Windows
	// arrive exactly as the cell's retained timeline will hold them. The
	// pointer is borrowed: copy or encode it before returning.
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

// Submit expands the spec and schedules every cell on the engine. Submission never blocks on the work itself; identical cells
// (within this sweep, across sweeps, or against past runs) are
// deduplicated by the engine's in-flight coalescing and result cache.
func Submit(eng *engine.Engine, spec Spec, traces TraceResolver, sub Submission) (*Sweep, error) {
	cells, err := spec.Expand(traces)
	if err != nil {
		return nil, err
	}
	norm := spec.normalize()
	return &Sweep{CellSet: schedule(eng, norm, cells, sub), spec: norm, tenant: sub.Tenant}, nil
}

// schedule submits cells on the engine, one group task per planned
// group. Each group shares one reference stream (the planGroups
// contract).
func schedule(eng *engine.Engine, spec Spec, cells []Cell, sub Submission) CellSet {
	cs := CellSet{cells: cells, jobs: make([]*engine.Job, len(cells))}
	kind := sub.Kind
	if kind == "" {
		kind = sim.KindSweep
	}
	for _, group := range planGroups(spec, cells) {
		// Every cell in a group measures the same reference stream on the
		// same machine — only the observer bank differs — so the whole
		// group runs as one simulation pass (see plan.go). Member keys are
		// the cells' own content addresses: the engine caches each member
		// under the key a per-cell run would use, so fused and per-cell
		// sweeps interoperate through the cache transparently.
		members := make([]sim.Member, len(group))
		for k, i := range group {
			members[k] = sim.Member{Key: cells[i].Key, Config: cells[i].cfg}
		}
		opt := sim.SampleOptions{Interval: spec.Interval}
		if len(group) == 1 && sub.OnWindow != nil {
			opt.OnWindow = cellWindows(cells[group[0]], sub.OnWindow)
		}
		g := sim.GroupTask(cells[group[0]].in, members, opt)
		if sub.Remote != nil {
			g.Run = remoteRun(sub.Remote, cells, group)
		}
		if len(group) == 1 {
			g.Kind = kind
		} else {
			cs.fused++
		}
		g.Origin = sub.Origin
		g.Tenant = sub.Tenant
		for k, j := range eng.SubmitGroup(g) {
			cs.jobs[group[k]] = j
		}
	}
	return cs
}

// remoteRun is a group's engine run that hands the group's live cells
// to remote instead of simulating them.
func remoteRun(remote func(context.Context, []Cell) ([]sim.AppResult, error), cells []Cell, group []int) func(context.Context, []int, func(uint64)) ([]any, error) {
	return func(ctx context.Context, live []int, _ func(uint64)) ([]any, error) {
		unit := make([]Cell, len(live))
		for k, i := range live {
			unit[k] = cells[group[i]]
		}
		results, err := remote(ctx, unit)
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

// cellWindows adapts a per-cell window hook to one cell's sampler. It
// attaches the energy breakdown the finished timeline's windows carry,
// so streamed and retained windows are identical.
func cellWindows(c Cell, hook func(int, *metrics.Window)) func(*metrics.Window) {
	energy := sim.WindowEnergy(c.cfg)
	return func(w *metrics.Window) {
		w.Energy = energy(w)
		hook(c.Index, w)
	}
}

// CellSet is a scheduled set of a sweep's cells: a whole sweep's (the
// job set behind Sweep) or a cluster worker's share of a distributed
// sweep. A subset replans fusion among its own members (cells sharing a
// reference stream still fuse even when the coordinator split their
// siblings across other workers).
type CellSet struct {
	cells []Cell // scheduled cells, in request order
	jobs  []*engine.Job
	fused int
}

// SubmitCells expands spec and schedules only the cells at the given
// expansion indices. Indices must be in range and strictly ascending
// (the coordinator dispatches planned units, which are ascending by
// construction). Identical cells dedup against the engine's cache and
// in-flight work exactly like whole-sweep submission.
func SubmitCells(eng *engine.Engine, spec Spec, traces TraceResolver, origin, tenant string, indices []int) (*CellSet, error) {
	all, err := spec.Expand(traces)
	if err != nil {
		return nil, err
	}
	if len(indices) == 0 {
		return nil, fmt.Errorf("sweep: no cell indices")
	}
	subset := make([]Cell, len(indices))
	for k, i := range indices {
		if i < 0 || i >= len(all) {
			return nil, fmt.Errorf("sweep: cell index %d out of range [0, %d)", i, len(all))
		}
		if k > 0 && i <= indices[k-1] {
			return nil, fmt.Errorf("sweep: cell indices must be strictly ascending")
		}
		subset[k] = all[i]
	}
	cs := schedule(eng, spec.normalize(), subset, Submission{Origin: origin, Tenant: tenant})
	return &cs, nil
}

// Cells returns the scheduled cells in request order.
func (cs *CellSet) Cells() []Cell { return cs.cells }

// FusedGroups returns how many multi-cell fused group tasks the set
// scheduled (0 when every cell ran individually).
func (cs *CellSet) FusedGroups() int { return cs.fused }

// Unfinished reports whether any cell is still queued or running (the
// service's admission accounting; allocates nothing).
func (cs *CellSet) Unfinished() bool {
	for _, j := range cs.jobs {
		if !j.State().Terminal() {
			return true
		}
	}
	return false
}

// UnfinishedCells counts cells still queued or running (the service's
// per-tenant cell-quota accounting; allocates nothing).
func (cs *CellSet) UnfinishedCells() int {
	n := 0
	for _, j := range cs.jobs {
		if !j.State().Terminal() {
			n++
		}
	}
	return n
}

// Cancel withdraws every cell's handle. Cells shared with other
// submitters keep running for them; exclusive cells stop.
func (cs *CellSet) Cancel() {
	for _, j := range cs.jobs {
		j.Cancel()
	}
}

// Wait blocks until every cell finishes and returns results aligned
// with Cells(). On error (ctx expires or a cell fails) the remaining
// handles are released.
func (cs *CellSet) Wait(ctx context.Context) ([]sim.AppResult, error) {
	results := make([]sim.AppResult, len(cs.jobs))
	var firstErr error
	for k, j := range cs.jobs {
		if firstErr != nil {
			j.Cancel()
			continue
		}
		v, err := j.Wait(ctx)
		if err != nil {
			j.Cancel()
			c := cs.cells[k]
			firstErr = fmt.Errorf("sweep: cell %d (%s on %s): %w", c.Index, c.Workload, c.Machine, err)
			continue
		}
		results[k] = v.(sim.AppResult).Clone()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// Dispositions returns each cell's engine disposition ("executed",
// "cache_hit", "coalesced"; empty while still running), aligned with
// Cells(). A cluster worker reports these so the coordinator can tell
// L1 cache hits from fresh computation.
func (cs *CellSet) Dispositions() []string {
	out := make([]string, len(cs.jobs))
	for k, j := range cs.jobs {
		out[k] = j.Status().Disposition
	}
	return out
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
	results, err := s.CellSet.Wait(ctx)
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
