// Package trace defines the memory-reference streams that drive the SMP
// simulator, and the JTRC on-disk trace format that makes those streams
// persistent: record once, inspect, share, and replay many times — the
// collect-once/replay-many workflow of the paper's WWT2-based
// methodology.
//
// # Streams
//
// A reference stream is a per-CPU sequence of read/write byte-address
// references behind the Source interface. RoundRobin interleaves the
// per-CPU streams into the one record order the simulator steps (one
// reference per live CPU per turn); it is the only code that does.
// SliceSource and FuncSource are in-memory building blocks;
// package workload provides the synthetic application generators.
//
// # The JTRC trace format
//
// A trace file is a versioned binary container (magic "JTRC", version 1)
// holding a header, a JSON metadata blob, and a sequence of chunks of
// varint-delta-encoded records, each chunk optionally gzip-compressed.
// Chunks are independently decodable (the delta state resets at every
// chunk boundary), so Writer and Reader stream in O(chunk) memory and
// Summarize can walk a file's framing without decoding any payload.
// TRACES.md documents the byte-level layout and the versioning rules in
// full.
//
// The pieces fit together as a pipeline:
//
//   - Writer/Reader encode and decode streams chunk by chunk; a stored
//     trace replays through the simulator bit-identically because
//     Reader.ReadBatch hands back records in recorded order (internal/sim
//     Run).
//   - Record drains a Source through RoundRobin into a Writer, up to a
//     total record count. It is the only code that writes a recorded
//     stream (`tracecat record`, `jettysim -capture`), and what it
//     writes is the prefix a run of that many references steps.
//   - Append re-encodes one trace into another Writer (conversion and
//     merging), Summarize scans framing only, and Digest content-
//     addresses a file for the engine's result cache.
package trace
