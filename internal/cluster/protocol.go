// Package cluster implements jettyd's coordinator/worker mode: a
// coordinator runs every sweep on its own engine like a single daemon,
// except that each planned unit's run posts the unit to a remote jettyd
// worker over the ordinary HTTP/JSON API instead of simulating it. The
// coordinator keeps the worker table: health probes, load scoring,
// trace uploads, retries, and hedging a unit onto a survivor when its
// worker dies.
//
// The cell digest makes all of this safe: a cell's key is a content
// address of everything that determines its result, so results are
// location-independent (any worker computes the same bytes) and
// cacheable at every hop — the coordinator's engine cache and store
// answer a rerun without any dispatch, and each worker's engine cache
// answers a unit a cold coordinator sends again.
package cluster

import (
	"encoding/json"

	"jetty/internal/sim"
	"jetty/internal/sweep"
)

// CellsPath is the worker endpoint a coordinator dispatches cell units
// to: POST a CellsRequest, receive a CellsResponse when every requested
// cell has finished.
const CellsPath = "/v1/cells"

// CellsRequest asks a worker to run a subset of a sweep's cells. The
// whole spec ships with the request: expansion is deterministic, so the
// worker reconstructs exactly the coordinator's cells (seeds, machine
// configs, sampling) from spec + indices — no per-cell parameter
// marshalling, and the indices stay meaningful in both processes.
type CellsRequest struct {
	// Spec is the full sweep specification.
	Spec sweep.Spec `json:"spec"`
	// Indices selects the cells to run, by expansion index, strictly
	// ascending. A coordinator dispatches whole planned units (the live
	// cells of one engine group), so cells that fuse onto one simulation
	// pass still fuse on the worker.
	Indices []int `json:"indices"`
}

// CellOutcome is one finished cell.
type CellOutcome struct {
	// Index is the cell's expansion index (mirrors the request).
	Index int `json:"index"`
	// Key is the cell's content address, echoed so the coordinator
	// matches results by digest without trusting index bookkeeping.
	Key string `json:"key"`
	// Disposition is the worker engine's verdict: "executed" for a fresh
	// computation, "cache_hit" for an L1 hit, "store_hit" for a result
	// served from the worker's persistent store, "coalesced" for a ride
	// on an identical in-flight run.
	Disposition string `json:"disposition,omitempty"`
	// Result is the cell's measurement.
	Result sim.AppResult `json:"result"`
}

// CellsResponse is the worker's reply once every requested cell
// finished.
type CellsResponse struct {
	// Worker optionally names the responding worker (diagnostics only).
	Worker string `json:"worker,omitempty"`
	// Cells holds one outcome per requested index, in request order.
	Cells []CellOutcome `json:"cells"`
}

// Bounds on the JSON encoding of a CellsResponse with every counter at
// its widest; TestReplyBoundCoversWidestReply checks them against the
// encoder.
const (
	// replyBytes covers the response outside its cells.
	replyBytes = 1 << 10
	// outcomeBytes covers a CellOutcome's fields and its result's
	// scalars and statistics, without the per-CPU, per-filter and
	// per-window parts, the spec and the filter names.
	outcomeBytes = 4 << 10
	// outcomeCPUBytes covers a result's two per-CPU entries.
	outcomeCPUBytes = 64
	// outcomeFilterBytes covers a result's per-filter counts and
	// coverage.
	outcomeFilterBytes = 256
	// windowBytes covers a timeline window without its filters;
	// windowFilterBytes one filter's counts in it.
	windowBytes       = 1 << 10
	windowFilterBytes = 256
)

// replyBound bounds the bytes of an honest reply to a request for the
// unit's cells, sampled every interval references (0: unsampled). A
// cell's result grows with its CPUs, its filters and, sampled, its
// windows; its spec and filter names are counted as encoded. (Both are
// plain data, so encoding them cannot fail.)
func replyBound(unit []sweep.Cell, interval uint64) int64 {
	n := int64(replyBytes)
	for _, c := range unit {
		cfg := c.Config()
		spec, _ := json.Marshal(c.Label())
		names := make([]string, len(cfg.Filters))
		for j, f := range cfg.Filters {
			names[j] = f.Name()
		}
		nameBytes, _ := json.Marshal(names)
		filters := int64(len(cfg.Filters))
		n += outcomeBytes + int64(len(spec)) + 2*int64(len(nameBytes)) +
			int64(cfg.CPUs)*outcomeCPUBytes + filters*outcomeFilterBytes
		if interval > 0 {
			// A run emits a window per interval, a partial tail
			// window and a drain-only one (sim's newSampler).
			windows := int64(c.Total()/interval) + 2
			n += windows * (windowBytes + filters*windowFilterBytes)
		}
	}
	return n
}
