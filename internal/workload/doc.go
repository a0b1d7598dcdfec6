// Package workload is the workload generator library: it produces the
// deterministic memory-reference streams every experiment runs on, both
// the paper's benchmark suite and server-style scenario workloads, and
// each of them can feed a simulation directly or be exported to a trace
// file.
//
// # Behavioral signatures
//
// The paper drives its simulator with SPLASH-2 (plus Em3d and
// Unstructured) executions captured under WWT2; reproducing those exact
// streams would need the original binaries and a full-machine functional
// simulator, so — per the substitution rule — each application is
// replaced by a deterministic synthetic generator with the same
// *behavioral signature*: working-set sizes, reuse locality, write
// fraction, and the sharing patterns whose interplay produces the
// paper's Table 2/3 statistics (L1/L2 hit rates, snoop-miss dominance,
// the remote-hit distribution). Those are exactly the properties JETTY's
// coverage and energy results depend on.
//
// A Spec composes the available patterns: private working-set tiers
// (Region), producer/consumer rings (PairSharing), migratory records
// (MigratorySharing), widely-read data (WideSharing), and zipf-popular
// shared objects (ZipfSharing — the hot-row/hot-object contention of
// server workloads). First-touch page-colored translation maps the
// virtual layout onto the physical addresses the snooped bus sees.
//
// # The library
//
// Specs returns the paper's Table 2 suite; Scenarios returns the
// server-side signatures (Throughput, WebServer, Database, Pipeline,
// Migratory, ...); Library returns both and Lookup resolves any of them
// by name or abbreviation — the one name space used by cmd/jettysim,
// cmd/tracecat and the jettyd service.
//
// Every generator is seeded and the simulator's interleaving is fixed,
// so all experiments are bit-reproducible; Spec.Source streams are
// infinite and a run's length is bounded by the consumer (a run steps
// Spec.Accesses references, trace.Record writes the count it is given).
// Export any spec with trace.Record (or `tracecat record`) to get a
// replayable trace file — see TRACES.md.
package workload
