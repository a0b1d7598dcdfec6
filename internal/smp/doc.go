// Package smp simulates the paper's machine: a snoopy, bus-based,
// write-invalidate SMP with per-processor write buffer, direct-mapped
// write-back L1, and a set-associative, subblocked L2 keeping MOESI
// state per subblock (L1 is included in L2). The simulation is
// trace-driven and data-less: one memory reference is processed at a
// time, globally ordered, which is exact for the coverage and energy
// statistics the paper evaluates (it reports no performance results for
// JETTY).
//
// JETTY filters are attached as per-CPU observers. Filtering never
// changes protocol outcomes (a filtered snoop would have missed anyway),
// so a single pass drives the protocol while any number of filter
// configurations measure their coverage simultaneously — exactly how the
// paper evaluates many organizations over one set of traces. The bank is
// additionally audited on every snoop: a filter claiming a cached unit
// absent is counted as a safety violation (CheckFilterSafety).
//
// The per-reference path is one stepping body: StepBatch runs
// internal/sim's batches through it, and Step is a one-record batch
// through the same body. It is the simulator's hot loop and is kept
// allocation-free in steady state: precomputed address-geometry shifts,
// a ring write buffer with an exact membership signature, L2 frame
// handles threaded from one associative search through every dependent
// access, and concrete-typed filter dispatch. PERFORMANCE.md at the
// repository root records the measured baseline and the design notes.
package smp
