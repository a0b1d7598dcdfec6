// Package obs is jettyd's zero-dependency telemetry layer: the
// instruments every serving layer records into and the exposition
// /metrics renders from.
//
// It deliberately reimplements the small slice of a metrics client the
// daemon needs rather than importing one:
//
//   - Histogram / HistogramFamily: fixed-bucket, lock-free latency
//     histograms. Observe is one bound scan plus two atomics and never
//     allocates — cheap enough for the engine's job-retire hook and the
//     per-request HTTP path (BenchmarkObsOverhead pins the cost, and
//     TestHistogramObserveAllocs pins 0 allocs/op).
//   - Counter / Gauge / GaugeFamily: atomic scalars. Counters are
//     monotone; Set exists to mirror externally maintained monotone
//     totals (engine.Stats) into one consistent scrape.
//   - Registry: orders families and renders the Prometheus text
//     exposition format (0.0.4). Cumulative histogram buckets are
//     rebuilt at render time, so +Inf always equals _count even while
//     writers race the scrape.
//   - Lint / CheckMonotone: an in-repo promlint that CI and the service
//     tests run against live scrape output — HELP/TYPE present for
//     every series, counters suffixed _total and never decreasing
//     across scrapes, histogram buckets cumulative.
//   - NewRequestID / WithRequestID: request-ID generation and context
//     propagation; the service middleware echoes the ID as
//     X-Request-Id and the engine carries it as GroupTask.Origin so job
//     telemetry correlates back to the submitting request.
//   - NewLogger: log/slog construction for jettyd's -log-format and
//     -log-level flags (JSON lines by default).
//   - ReadBuildInfo: the /buildinfo payload and jettyd_build_info
//     metric, from runtime/debug.ReadBuildInfo.
//
// The package depends only on the standard library, keeping the
// simulator importable without pulling a metrics stack.
package obs
