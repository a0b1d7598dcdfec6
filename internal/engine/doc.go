// Package engine is a job-based experiment execution engine: a fixed
// worker pool sharded across GOMAXPROCS, context cancellation, per-job
// progress reporting, and a content-addressed in-memory result cache.
//
// # Group tasks and content addressing
//
// The unit of work is a GroupTask: one computation producing one or
// more member results, each identified by a content address (the Key):
// two members with the same key MUST compute the same result. A plain
// Task is a group of one (Submit wraps it), so admission (SubmitGroup)
// and execution (runGroup) exist exactly once. The engine exploits the
// key contract per member in three ways. Finished results are kept in
// an LRU cache so repeated submissions are served without re-running;
// identical in-flight submissions are deduplicated onto one execution
// (every submitter gets its own Job handle observing the shared run);
// and an optional persistent ResultStore serves results that survived
// a restart and receives every fresh one before its job reports done.
//
// The simulator supplies the keys (internal/sim Key): a SHA-256 over
// the reference stream's identity — generator spec or trace digest —
// and the machine configuration, so two clients uploading
// byte-identical trace files to jettyd share one execution and one
// cached result.
//
// Kind, Origin and Tenant label a task for the fair-share queue and for
// telemetry (Status, retire traces). They are not part of the content
// address, and the engine does not hand them to the run: a run that
// needs its submitter's identity, such as a cluster coordinator's
// dispatch, captures it when its Run closure is built. The closure
// belongs to the submission that created the execution, so the run
// always acts as the execution's owner.
//
// # Concurrency
//
// The engine is safe for concurrent use by many goroutines; it is the
// concurrency cap for everything built on top of it (the sim suite
// runners and the jettyd service submit here rather than spawning
// their own goroutines). Every Job handle supports Wait, Cancel and
// Status snapshots; an execution is canceled only when every handle to
// it has been canceled.
package engine
