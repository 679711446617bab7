// Package sweep is a parallel engine for mass deterministic
// simulation: it runs thousands of simulated executions per second across
// GOMAXPROCS workers and aggregates the results into a report that is
// bit-identical for any worker count.
//
// # Why a fleet
//
// Everything that consumes the simulator — validity checks, adversary
// sweeps, the load catalog's sim legs — runs one sim.Runtime at a time in
// a loop that pays run-state construction per execution. Independent
// runtimes are embarrassingly parallel, and the per-execution constant is
// dominated by exactly the state a long-lived runtime can keep: process
// coroutines, scheduler buffers, the instantiated object graph. The sweep
// engine exploits both:
//
//   - Each worker owns an arena: per object, one sim.Runtime in reuse mode
//     (sim.WithReuse) with the compiled blueprint instantiated once, plus
//     rearmable adversaries and a rearmable sim.CrashPlan. An
//     execution is then Reset + rearm + Run — allocation-free in steady
//     state, several times cheaper than the naive instantiate-per-run loop
//     (see BENCHMARKS.md, "The sweep engine").
//   - Tasks — (object × adversary family × crash plan × seed) tuples,
//     identified by a single index — are all known before any worker
//     starts, so workers take the next index from one shared atomic
//     counter. A worker that draws an expensive task (crash runs disable
//     burst fast paths and cost more) simply takes fewer, so load
//     imbalance evens out with no queue to balance.
//
// # Deterministic aggregation
//
// Which worker runs which task is nondeterministic, so nothing
// order-dependent may leak into results. Every task is a pure function of
// its index; per-worker accumulators combine executions with commutative,
// associative operations only (sums, min/max with total-order tie-breaks
// on task index, and checksums that add per-task hashes), and the final
// merge folds workers in index order. The aggregate Report is therefore
// bit-identical across -workers 1, -workers N, and any task interleaving
// — pinned by TestSweepDeterminism.
//
// # Schedule search and harvesting
//
// Beyond grid sweeps, the engine runs annealing search chains over
// adversary decision seeds and crash-plan positions, hunting validity
// violations and maximum per-process step complexity — probing the
// paper's adaptive O(log k) step bound against adversarial executions in
// the spirit of the known worst-case constructions for adaptive renaming.
// Worst cases (and any violation) are harvested: re-recorded through the
// execution layer as an exec.EventLog, validated with
// CheckRenamingTrace/CheckCounterTrace, and replayed bit-identically via
// sim.FromTrace. Frozen finds live in Regressions and replay in CI.
package sweep
