// Package renaming is a Go implementation of "Optimal-Time Adaptive Strong
// Renaming, with Applications to Counting" (Alistarh, Aspnes, Censor-Hillel,
// Gilbert, Zadimoghaddam; PODC 2011).
//
// # What it provides
//
//   - Strong adaptive renaming: k concurrent participants acquire the names
//     1..k exactly, in O(log k) expected test-and-set entries per process
//     (Section 6 of the paper), via a randomized splitter tree feeding a
//     renaming network built on an unbounded adaptive sorting network.
//   - BitBatching: non-adaptive strong renaming into exactly n names with
//     polylogarithmic step complexity (Section 4).
//   - Renaming networks over any explicit sorting network (Section 5).
//   - Counting applications (Section 8): a monotone-consistent counter with
//     O(log v) increments, a linearizable ℓ-test-and-set, and a
//     linearizable m-valued fetch-and-increment with O(log k·log m) cost.
//
// # Runtimes
//
// Algorithms are written against a small shared-memory abstraction
// (Proc/Reg/Mem) with two interchangeable runtimes:
//
//   - NewSim: a deterministic simulator of asynchronous shared memory under
//     a strong adaptive adversary — exact step counts, pluggable schedules,
//     crash injection, reproducible from a seed. This is the runtime the
//     paper's model calls for; all correctness tests and experiment tables
//     use it.
//   - NewNative: real goroutines over sync/atomic registers, for wall-clock
//     benchmarks and for using the objects in ordinary Go programs.
//
// The execution layer (below) orchestrates k-process executions uniformly
// over both, so crash injection and trace recording are no longer
// simulator-only.
//
// # Quick start
//
//	rt := renaming.NewNative(42)
//	ren := renaming.NewRenaming(rt)
//	rt.Run(8, func(p renaming.Proc) {
//	    name := ren.Rename(p, uint64(p.ID())+1)
//	    fmt.Printf("process %d got name %d\n", p.ID(), name)
//	})
//
// # Two-phase construction: blueprints, instantiation, reset
//
// Every object is split into a compiled blueprint (the runtime-independent
// shape — topology, geometry, layouts — compiled once per parameter point
// and cached process-wide) and an instantiation that stamps shared state
// onto one runtime through bulk register arenas. The NewX constructors do
// both in one call; the CompileX functions expose the blueprint, and
// instantiated objects support Reset, so repeated-execution sweeps and
// long-lived serving loops construct once and run many times without
// reallocation:
//
//	bp := renaming.CompileRenaming()    // cached process-wide
//	rt := renaming.NewSim(seed0, adv0)
//	ren := bp.Instantiate(rt)           // once per object graph
//	rt.Run(k, body)
//	ren.Reset()                         // restore shared state in place
//	rt.Reset(seed1, adv1)               // rewind the simulator
//	rt.Run(k, body)                     // allocation-free
//
// For a fixed (seed, adversary) the reset path is bit-identical to fresh
// construction — same Stats, same names, same crash sets (the reuse
// equivalence tests pin this down).
//
// # Serving: sharded instance pools
//
// NewPool turns a compiled blueprint into a sharded serving engine: each
// shard owns a lock-free freelist of pre-instantiated, resettable object
// graphs (cache-line-padded shard headers, tagged single-CAS checkout, a
// cheap per-goroutine hash for shard selection), and any number of
// goroutines check instances out, operate, and return them. Returned
// instances are recycled — restored to their just-instantiated state in
// place — so every checkout observes a fresh graph with zero allocation;
// when a shard runs dry the pool instantiates another instance from the
// cached blueprint, so capacity follows peak demand. A pooled checkout is
// bit-identical to fresh construction per (seed, adversary), the same
// contract as Reset (reuse_equiv_test.go covers the pooled path too).
//
//	pool := renaming.NewRenamingPool()          // or NewPool[T](bp)
//	// any number of goroutines:
//	pool.Execute(k, func(p renaming.Proc, sa *renaming.StrongAdaptive) {
//	    name := sa.Rename(p, uint64(p.ID())+1)  // fresh graph per request
//	    ...
//	})
//	// or per-operation serving on the instance's dedicated proc:
//	pool.Do(func(p renaming.Proc, sa *renaming.StrongAdaptive) {
//	    sa.Rename(p, 1)
//	})
//
// A caller that panics mid-operation cannot leak a dirty graph: Do and
// Execute recycle through a deferred Put (the pool stress tests pin this,
// reusing the LongLived crash-recycle machinery). On the native runtime the
// hot path underneath is devirtualized: native registers are accessed
// through direct atomic-word handles rather than interface dispatch, and
// the per-operation serving path runs allocation-free (see BENCHMARKS.md
// "Throughput").
//
// # The execution layer: faults, record, replay
//
// NewExecution is the runtime-agnostic orchestration surface: it owns the
// participant lifecycle of repeated k-process executions on either runtime
// (reusing proc contexts natively, so the steady state allocates nothing)
// and is where fault injection and trace recording arm:
//
//	rt := renaming.NewNative(42)
//	ex := renaming.NewExecution(rt, 8)
//	ex.Faults(renaming.NewFaultPlan().CrashAt(3, 100)) // crash p3 at its 100th step
//	log := ex.Record()
//	ren := renaming.NewRenaming(rt)
//	st := ex.Run(func(p renaming.Proc) {
//	    ex.MarkName(p, ren.Rename(p, uint64(p.ID())+1))
//	})
//	err := renaming.CheckRenamingTrace(log) // survivors unique in [1..k]
//	sim := renaming.Replay(log)             // deterministic re-execution
//
// A FaultPlan (crash-at-step, stall windows, Pause/Resume) uses
// process-local step counts — the clock both runtimes share — and arms on
// the simulator by wrapping the adversary, and on the native runtime
// through a step hook whose dispatch is type-based — armed executions run
// their bodies behind a wrapping proc type, so the disarmed step path is
// not touched at all and the native hot loop and the serving pools pay
// nothing until a plan or recorder is armed (measured in BENCHMARKS.md
// "The execution layer").
//
// The EventLog a recorded run produces is deterministic on the simulator
// (same seed, adversary, and plan ⇒ same log, event for event). Recorded
// on the native runtime, it is a sound total order of the execution's
// operations (recording serializes the run to guarantee this), and
// Replay re-executes it bit-identically on the simulator: same names, same
// per-process operation counts, same crash sets. CheckRenamingTrace and
// CheckCounterTrace run the paper's validity conditions over a recorded
// log from either runtime. An instance checked out with Pool.Get exposes
// the same layer through its Exec method, so chaos testing runs against
// checked-out serving instances too; cmd/renametrace -native and
// examples/chaos drive it.
//
// # Load generation
//
// The workload harness turns "run a benchmark" into "serve a workload":
// a Scenario declares an arrival process (closed-loop with think time, or
// open-loop steady/Poisson/square-wave-burst/linear-ramp arrivals), an
// operation mix (pooled renames, counter incs/reads, k-process execution
// waves), a duration and op budget, optional churn (the wave width k(t)
// follows a triangle wave — time-varying contention, the adaptive case the
// paper is about), and an optional FaultPlan armed on every wave (crash
// storms mid-load). LoadCatalog holds ~9 curated scenarios; RunScenario
// executes one against the pools:
//
//	s, _ := renaming.FindScenario("churn")
//	r := renaming.RunScenario(s, renaming.NewLoadTarget(s.Seed))
//	r.Fprint(os.Stdout)      // per-phase p50/p90/p99/p999/max, rates, live k
//	os.Stdout.Write(r.JSON())
//
// Open-loop latency is measured from each operation's scheduled arrival,
// not its actual start: when the server stalls, queued arrivals accumulate
// the stall into their measured latency instead of silently stretching the
// arrival gaps (the coordinated-omission correction). Measurement is
// allocation-free: each worker records into its own fixed-size
// log-bucketed histogram (quantiles within 1/32 relative error), merged
// once at stop, and the per-op path — schedule inversion, op picking,
// recording — performs zero heap allocations (pinned by a ReportAllocs
// benchmark). Reports split per phase aligned to burst/ramp edges and
// sample live contention from the pools' in-flight gauges.
//
// RunScenarioSim runs the same scenario on the deterministic simulator:
// latency becomes step complexity and the whole report (op counts, names,
// crash sets, quantiles, checksum) is a pure function of (seed, scenario)
// — a load test that replays bit-identically. cmd/renameload is the CLI
// (-scenario, -rate, -duration, -faults, -json; -runtime sim runs twice
// and gates on bit-identical replay); reach for the harness when the
// question is "how does the served system behave under this traffic
// shape" and for go test -bench when it is "how fast is this code path".
//
// # Phased counting
//
// The monotone counter's AAC spine is linearizable but every Inc walks a
// shared tree — at high contention the walk is the bottleneck. The phased
// counter (NewPhasedCounter / NewPhasedCounterPool) makes the hot path
// contention-adaptive by running in one of two phases over the same
// authoritative spine:
//
//   - Joined: every Inc delegates straight to the spine. Overhead over the
//     bare counter is one atomic mode load — within noise in the serial A/B
//     benchmarks.
//   - Split: each serving lane absorbs Incs into its own cache-line-padded
//     cell with a plain atomic add (lock-free, allocation-free), and merges
//     the cell's cumulative count into the spine's CAS-max merge slots
//     whenever it crosses an epoch boundary — cooperatively on the
//     incrementing lane's own step, or from a dedicated reconciler
//     goroutine (WithReconcileEvery).
//
// Reads stay monotone-consistent in both phases and across transitions:
// Read sums the spine's joined component with the cumulative cells (cells
// are never drained, and merge slots are idempotent CAS-max registers, so
// a crash anywhere in the merge window loses nothing and double-counts
// nothing — CheckCounterTrace pins this across crash storms on both
// runtimes). ReadSpine is the bounded-staleness fast read: at most one
// epoch per cell behind. ReadStrict forces a full reconciliation first and
// returns the exact value.
//
// NewPhasedCounterPool serves one shared phased counter to any number of
// goroutines and drives the phase automatically: lanes export live
// contention signals (failed lease CASes, failed spine CASes, in-flight
// occupancy), and a hysteretic controller — enter/exit thresholds a 5×
// band apart plus a settle debounce — flips to split when the joined spine
// thrashes and rejoins (reconciling first) when traffic calms, so bursty
// workloads get split-phase throughput (≥3× the shared spine at high
// contention; see BENCHMARKS.md "Adaptive phase reconciliation") without
// giving up joined-mode reads in the quiet phases. The "phased" and
// "phased-churn" catalog scenarios run this machinery under bursty load
// and under churn with crashes landing mid-reconciliation.
//
// # Networked serving
//
// The wire tier puts the sharded pools behind a socket: ListenWire serves
// a batched, length-prefixed binary protocol (rename, counter inc/read,
// phased-counter verbs, k-process execution waves), and DialWire returns
// a pipelining client that keeps many batches in flight per connection,
// correlated by sequence number out of one reader loop:
//
//	srv, _ := renaming.ListenWire("127.0.0.1:7411", renaming.NewLoadTarget(1))
//	c, _ := renaming.DialWire("127.0.0.1:7411", time.Second)
//	name, _ := c.Do(renaming.WireRename, key)          // group-committed
//	vals, _ := c.NewBatch().Inc(3).Inc(3).Read(3).Commit() // explicit batch
//
// The frame is the unit of everything: one request batch is one write
// syscall, one server decode, and one reply frame, so the per-round-trip
// costs that dominate off-box serving amortize over the batch (the
// loopback sweep in BENCHMARKS.md "The wire protocol" measures the
// curve). Concurrent Do callers group-commit — whoever finds no flush in
// progress drains the shared queue into one frame — so batch size tracks
// the instantaneous concurrency with no timers to tune. The server's
// steady-state request path (zero-copy decode into a per-connection
// buffer, pooled execution via the keyed shard checkout, coalesced reply
// writes) performs zero allocations per operation, pinned the same way as
// every other hot path here. Batches carry an optional relative deadline
// budget; a batch the server cannot finish in budget fails typed
// (WireError) instead of stretching the tail, and a dropped connection
// fails its in-flight tail typed too (WireDroppedError).
//
// RunScenarioWire (and cmd/renameload -addr) drives the full scenario
// catalog through this path with the open-loop scheduling and
// coordinated-omission accounting unchanged, against cmd/renameserve on
// the other side. WireServer speaks only the binary protocol; its
// observability data is WireServer.MetricsText (plain-text gauges,
// counters, and per-op latency histograms) and WireServer.TraceText
// (recorded spans; see "Tracing"), which library embedders serve or log
// as they choose. cmd/renameserve serves them over net/http on its wire
// port — any connection opening with an HTTP method gets /metrics,
// /trace, and the net/http/pprof runtime profiles instead of the binary
// protocol.
//
// # Clustered serving
//
// The cluster tier scales the wire tier horizontally the way the paper
// scales names: partition the resource space, let every participant
// reach a unique slot without coordinating with the others. A ClusterRing
// is a static table of N wire servers, each owning a disjoint slice
// [Base, Base+Span) of the cluster name space; keys place onto nodes by a
// deterministic consistent jump hash (every client computes the same
// routing from the same ring file, and appending a node moves only ~1/N
// of the keys). ClusterClient keeps one pipelined wire connection per
// node and scatters each batch into per-node sub-batches that are all in
// flight concurrently, then gathers replies back in caller order — per
// operation, the scatter-gather path allocates nothing:
//
//	ring, _ := renaming.NewClusterRing(addrs, 1<<20)
//	c, _ := renaming.DialCluster(ring, time.Second)
//	bt := c.NewBatch()
//	bt.Rename(7).Inc(3).Read(3)
//	vals, _ := bt.Commit() // sub-frames fanned out, gathered in order
//
// Rename replies come back offset into the owning node's range, so
// cluster-wide uniqueness needs no inter-node coordination at all: it is
// the disjointness of the ranges, client-side arithmetic over the same
// resource-bounded view of naming the algorithms implement. Failures
// scope to nodes — a dead node fails only the ops routed to it (typed
// ClusterNodeError naming the node and its range; the other nodes' values
// still arrive) — and DialWire/DialCluster retry refused connections with
// bounded exponential backoff inside the caller's wait budget.
//
// Each node defends itself with admission control (WireOptions,
// cmd/renameserve -admit): a bounded number of concurrently-executing
// operations per gate shard, a bounded wait queue behind them, and
// shed-on-deadline — an op that cannot be admitted within its batch's
// budget (or the server's configured wait bound) is refused typed and
// retryable (WireShedError, IsShedError) rather than queued into tail
// collapse. Sheds count in the load report's Sheds field without failing
// its verdict, and surface as netserve_shed_total on every node's metrics
// endpoint. cmd/renameserve -ring -node serves one node of a ring;
// cmd/renameload -ring (and RunScenarioCluster) drives the whole cluster
// through the routed path; BENCHMARKS.md "The cluster tier" holds the
// fan-out and shed-under-burst measurements.
//
// # Tracing
//
// The tracing layer (NewTraceCollector, internal/obs) answers the
// question the latency quantiles cannot: which hop hurt. A client arms a
// TraceCollector on its connection (WireClient.SetTrace,
// ClusterClient.SetTrace, renameload -trace); from then on every frame
// carries a trace id as a negotiated wire extension — old peers still
// parse the base frame — and every reply echoes the server's stage
// decomposition, so each round trip splits into admission wait, shard
// execution, server queue/parse overhead, and network/client time
// (LoadStages; the load report's stages row). Trace ids whose low bits
// clear a power-of-two sampling mask additionally record spans at every
// hop they cross:
//
//	client_op / gather ─ the client round trip (one sub_batch per node)
//	frame              ─ the server's dequeue-to-reply window
//	admit              ─ an admission-gate wait (wait ns + shed flag)
//	op                 ─ one shard execution (op code, shard, phase mode)
//
// every span node-attributed on a cluster, all under one trace id, so a
// tail operation reads as a chain: which node, which shard, queued how
// long, shed or served. Recording is allocation-free — fixed-size spans
// into per-shard seqlock ring buffers, a background folder maintaining
// the recent window and slowest-span exemplars — so the disarmed path
// costs one load-and-branch and the armed path stays pinned at zero
// allocations alongside the serve path it measures. Server-side spans
// read out as JSON lines through WireServer.TraceText, which
// cmd/renameserve serves on each node's /trace endpoint next to /metrics
// (whose per-op histograms carry slowest-op trace-id exemplars — the
// bridge from an aggregate to a chain); renameload -trace N prints the N
// slowest client-side chains after a run. BENCHMARKS.md "Observability"
// holds the overhead measurements.
//
// # Schedule sweeps
//
// The sweep engine (NewSweep, cmd/renamesweep) turns the deterministic
// simulator into a fleet: a work-stealing pool of workers, each owning one
// long-lived arena per object kind (blueprint instantiated once, then
// Runtime.Reset + object Reset per execution — the steady state allocates
// nothing), burns through the cross product of seeds × adversary families ×
// crash plans × objects, checking every execution's validity and tracking
// worst-case step complexity:
//
//	sp, _ := renaming.NewSweepSpace(renaming.SweepObjects(), 16)
//	sw, _ := renaming.NewSweep(sp, renaming.SweepOptions{Workers: 4})
//	rep := sw.Run()
//	os.Stdout.Write(rep.JSON())  // per-object rows + harvested worst cases
//
// The report is bit-identical regardless of worker count or steal order:
// every per-object statistic is merged commutatively, and worst-case
// selection breaks ties by task order, not arrival order. -search switches
// from grid enumeration to an annealing search over adversary seeds and
// crash plans, hunting executions that maximize step complexity or break
// validity. Either way the worst schedules found are harvested: re-recorded
// through the execution layer into an EventLog and verified to replay
// bit-identically, so a sweep's output is not a report of something that
// happened once but a set of reproducible artifacts — the frozen ones ship
// as regressions (SweepRegressions, renamesweep -regressions) that CI
// replays forever. renamesweep exits nonzero on any violation.
//
// See examples/ for runnable scenarios (threadpool and ticketing serve
// repeated waves from pools; chaos crash-injects native executions and
// replays them; loadtest runs a burst + crash-storm catalog scenario) and
// BENCHMARKS.md for the benchmark harness, the scheduler fast paths, the
// construction-cost table, the throughput suite, the workload harness
// methodology, and the per-experiment index.
package renaming
