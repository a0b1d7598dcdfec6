package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
)

// metric is one per-filter row of a sweep result (sweep.Metric's JSON).
type metric struct {
	Workload           string  `json:"workload"`
	Machine            string  `json:"machine"`
	Filter             string  `json:"filter"`
	Repeat             int     `json:"repeat"`
	Coverage           float64 `json:"coverage"`
	SerialOverSnoops   float64 `json:"energy_serial_over_snoops"`
	SerialOverAll      float64 `json:"energy_serial_over_all"`
	ParallelOverSnoops float64 `json:"energy_parallel_over_snoops"`
	ParallelOverAll    float64 `json:"energy_parallel_over_all"`
	SnoopMissOfSnoops  float64 `json:"snoopmiss_of_snoops"`
	SnoopMissOfAll     float64 `json:"snoopmiss_of_all"`
}

// oraclePerClient is how many fresh results per client are kept and
// recomputed after the run by the in-process reference (jettysweep).
const oraclePerClient = 2

// verifier checks every result as it arrives and keeps a few for the
// reference recomputation. known maps a spec to a result queued for
// verification: any later answer for the same spec must equal it
// exactly. Requests that failed are counted too, warm-up ones included.
type verifier struct {
	mu      sync.Mutex
	known   map[string][]metric
	kept    map[*client]int
	oracle  []sample // results to recompute with jettysweep
	invalid []string // first few wrong results, for the log
	bad     int      // wrong results
	errs    int      // failed requests
}

func newVerifier() *verifier {
	return &verifier{known: map[string][]metric{}, kept: map[*client]int{}}
}

func specKey(s sweepSpec) string {
	b, _ := json.Marshal(s) // a struct of strings and a float cannot fail
	return string(b)
}

// check counts a failed sample, or validates a successful one and drops
// its metrics unless they are kept for the reference run.
func (v *verifier) check(c *client, s *sample) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if s.err != nil {
		v.errs++
		return
	}
	err := shape(s.spec, s.metrics)
	key := specKey(s.spec)
	if ref, ok := v.known[key]; err == nil && ok && !slices.Equal(ref, s.metrics) {
		err = fmt.Errorf("%s: result differs from the earlier answer for the same spec", key)
	}
	if err != nil {
		v.fail(err)
	} else if _, ok := v.known[key]; !ok && v.kept[c] < oraclePerClient {
		v.kept[c]++
		v.remember(*s)
	}
	s.metrics = nil
}

// remember queues a result for the reference run and pins it as the
// answer for its spec. Caller holds v.mu.
func (v *verifier) remember(s sample) {
	v.known[specKey(s.spec)] = s.metrics
	v.oracle = append(v.oracle, s)
}

func (v *verifier) fail(err error) {
	v.bad++
	if len(v.invalid) < 5 {
		v.invalid = append(v.invalid, err.Error())
	}
}

// shape checks what every result must satisfy: one row per filter of
// the spec, in axis order, for the requested workload, with coverage and
// snoop-miss fractions in [0, 1].
func shape(spec sweepSpec, ms []metric) error {
	if len(ms) != len(spec.Filters) {
		return fmt.Errorf("%s: %d metrics, want %d", spec.Workloads[0], len(ms), len(spec.Filters))
	}
	for i, m := range ms {
		if m.Workload != spec.Workloads[0] || m.Filter != spec.Filters[i] || m.Repeat != 0 {
			return fmt.Errorf("metric %d is %s/%s/%d, want %s/%s/0", i, m.Workload, m.Filter, m.Repeat, spec.Workloads[0], spec.Filters[i])
		}
		for _, f := range []float64{m.Coverage, m.SnoopMissOfSnoops, m.SnoopMissOfAll} {
			if !(f >= 0 && f <= 1) {
				return fmt.Errorf("%s/%s: fraction %v outside [0, 1]", m.Workload, m.Filter, f)
			}
		}
	}
	return nil
}

// reference recomputes every kept result with cmd/jettysweep — the same
// simulator run in-process, with no HTTP, cluster or disk in the path —
// and requires bit-identical metrics.
func (v *verifier) reference(ctx context.Context, jettysweep, dir string) error {
	for i, s := range v.oracle {
		path := filepath.Join(dir, fmt.Sprintf("oracle-%d.json", i))
		body, err := json.Marshal(s.spec)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			return err
		}
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, jettysweep, "-q", "-format", "json", path)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("jettysweep %s: %w", path, err)
		}
		var ref struct {
			Metrics []metric `json:"metrics"`
		}
		if err := json.Unmarshal(out.Bytes(), &ref); err != nil {
			return fmt.Errorf("jettysweep %s: %w", path, err)
		}
		if !slices.Equal(ref.Metrics, s.metrics) {
			v.fail(fmt.Errorf("%s: service result differs from the in-process reference", specKey(s.spec)))
		}
	}
	return nil
}
