package exec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/allocs"
	"repro/internal/core"
	"repro/internal/maxreg"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/tas"
)

// newRenamer instantiates the strong adaptive renamer under test on mem,
// register-based TAS so coin flips sit on the operation path (the hardest
// case for record/replay bit-identity).
func newRenamer(mem shmem.Mem) *core.StrongAdaptive {
	return core.CompileStrongAdaptive(0).Instantiate(mem, tas.MakeTwoProcPool(mem))
}

func renameBody(ex *Execution, sa *core.StrongAdaptive, names []uint64) func(shmem.Proc) {
	return func(p shmem.Proc) {
		n := sa.Rename(p, uint64(p.ID())+1)
		names[p.ID()] = n
		ex.MarkName(p, n)
	}
}

// runSimRecorded runs one recorded, optionally fault-injected execution on
// a fresh simulator and returns its log and stats.
func runSimRecorded(t *testing.T, k int, seed uint64, plan *FaultPlan) (*EventLog, *shmem.Stats, []uint64) {
	t.Helper()
	rt := sim.New(seed, sim.NewRandom(seed))
	ex := New(rt, k)
	if plan != nil {
		ex.Faults(plan)
	}
	log := ex.Record()
	sa := newRenamer(rt)
	names := make([]uint64, k)
	st := ex.Run(renameBody(ex, sa, names))
	return log, st, names
}

// TestSimLogDeterminism pins the determinism contract: the same (seed,
// adversary, FaultPlan) produces an identical EventLog — event for event —
// across independent runtimes, with and without faults.
func TestSimLogDeterminism(t *testing.T) {
	const k = 6
	for _, faulty := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			mk := func() *FaultPlan {
				if !faulty {
					return nil
				}
				return NewFaultPlan().CrashAt(1, 5).CrashAt(3, 12)
			}
			logA, stA, _ := runSimRecorded(t, k, seed, mk())
			logB, stB, _ := runSimRecorded(t, k, seed, mk())
			if !reflect.DeepEqual(logA.Events(), logB.Events()) {
				t.Fatalf("faulty=%v seed=%d: two runs of the same (seed, adversary, plan) recorded different logs (%d vs %d events)",
					faulty, seed, logA.Len(), logB.Len())
			}
			if !reflect.DeepEqual(stA.PerProc, stB.PerProc) {
				t.Fatalf("faulty=%v seed=%d: per-proc stats diverged", faulty, seed)
			}
			if faulty {
				crashed := logA.Crashed()
				if !crashed[1] || !crashed[3] {
					t.Fatalf("seed=%d: planned crashes did not fire: %v", seed, crashed)
				}
			}
		}
	}
}

// TestArmedSimRunAllocFree pins the in-place rearm: on a reusing
// simulator, an Execution armed with a crash-only plan runs without
// allocating once warm, because each Run rearms the plan's state instead
// of building a new wrapper. A fresh seed can still grow the renamer's
// lazily built comparator graph, so the counted runs replay the seeds the
// warm-up ran, and their allocations are counted exactly. The warm-up
// replays them 100 times: Go builds a type-assertion site's cache on about
// one call in 1,024, and the simulator's NonCrashing test runs once per
// Run, so 100 warm runs left its 48 B cache to a counted run in about one
// test in six.
func TestArmedSimRunAllocFree(t *testing.T) {
	const k, seeds = 6, 100
	rt := sim.New(0, sim.NewSequential(), sim.WithReuse())
	defer rt.Close()
	ex := New(rt, k)
	ex.Faults(NewFaultPlan().CrashAt(1, 2).CrashAt(4, 3))
	sa := core.CompileStrongAdaptive(0).Instantiate(rt, tas.MakeUnit)
	body := func(p shmem.Proc) { sa.Rename(p, uint64(p.ID())+1) }
	adv := sim.NewRandom(0)
	seed := uint64(0)
	run := func() {
		seed = seed%seeds + 1
		sa.Reset()
		adv.Reseed(seed)
		rt.Reset(seed, adv)
		if st := ex.Run(body); !st.Crashed[1] || !st.Crashed[4] {
			t.Fatalf("seed=%d: planned crashes did not fire: %v", seed, st.Crashed)
		}
	}
	for range 100 * seeds {
		run() // warm up: park the coroutines, grow the plan's state and the graph
	}
	if n, b := allocs.Count(seeds, run); n != 0 {
		t.Fatalf("%d armed simulator runs made %d allocations (%d B), want 0", seeds, n, b)
	}
}

// TestSimRecordedReplaysIdentically records a simulated execution and
// replays its schedule through sim.FromTrace: the replay must produce the
// identical EventLog (schedules, per-proc sequence numbers, names).
func TestSimRecordedReplaysIdentically(t *testing.T) {
	const k = 5
	for seed := uint64(0); seed < 4; seed++ {
		orig, _, names := runSimRecorded(t, k, seed, NewFaultPlan().CrashAt(2, 7))

		rt := Replay(orig)
		ex := New(rt, k)
		relog := ex.Record()
		sa := newRenamer(rt)
		renames := make([]uint64, k)
		ex.Run(renameBody(ex, sa, renames))

		if !reflect.DeepEqual(orig.Events(), relog.Events()) {
			t.Fatalf("seed=%d: replayed log differs from the recorded one", seed)
		}
		if !reflect.DeepEqual(names, renames) {
			t.Fatalf("seed=%d: replay names %v != recorded names %v", seed, renames, names)
		}
	}
}

// runNativeRecorded records one execution on the native runtime.
func runNativeRecorded(t *testing.T, k int, seed uint64, plan *FaultPlan) (*EventLog, *shmem.Stats, []uint64) {
	t.Helper()
	rt := shmem.NewNative(seed)
	ex := New(rt, k)
	if plan != nil {
		ex.Faults(plan)
	}
	log := ex.Record()
	sa := newRenamer(rt)
	names := make([]uint64, k)
	st := ex.Run(renameBody(ex, sa, names))
	return log, st, names
}

// runAACRecorded records one execution on rt in which each of k processes
// increments a merge-layout AAC counter and reads it back, bracketing both
// with counter marks. It returns each process's Read and ReadJoined values
// in order.
func runAACRecorded(rt shmem.Runtime, k int) (*EventLog, *shmem.Stats, [][]uint64) {
	ex := New(rt, k)
	log := ex.Record()
	c := maxreg.NewAACCounterWithMerge(rt, k, k)
	reads := make([][]uint64, k)
	st := ex.Run(func(p shmem.Proc) {
		id := p.ID()
		for range 4 {
			ex.MarkIncStart(p)
			c.Inc(p)
			ex.MarkIncEnd(p)
			ex.MarkReadStart(p)
			v := c.Read(p)
			ex.MarkRead(p, v)
			reads[id] = append(reads[id], v, c.ReadJoined(p))
		}
	})
	return log, st, reads
}

// TestNativeRecordReplaysOnSim is the headline contract of the execution
// layer: an execution recorded on the native runtime — whichever
// interleaving the hardware produced — replays on the simulator through
// sim.FromTrace with the same schedule, values and per-process operation
// counts, checker-clean. The renaming input also re-records the same
// events. The second input, an AAC counter, runs max-register walks whose
// writes mostly rewrite a held switch or spine bit, which the native
// registers do not store; its processes take an increment-start mark
// before their first step, and such marks come back in process-id order on
// the simulator, so its logs are compared by schedule rather than event by
// event. Its recorded native procs are hooked, so they take the
// max registers' FastReg walk, not the word walk of unhooked procs.
func TestNativeRecordReplaysOnSim(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 3; seed++ {
			log, st, names := runNativeRecorded(t, k, seed, nil)
			if err := CheckRenamingTrace(log); err != nil {
				t.Fatalf("k=%d seed=%d: recorded native execution not valid: %v", k, seed, err)
			}

			rt := Replay(log)
			ex := New(rt, k)
			relog := ex.Record()
			sa := newRenamer(rt)
			renames := make([]uint64, k)
			rst := ex.Run(renameBody(ex, sa, renames))

			if !reflect.DeepEqual(names, renames) {
				t.Fatalf("k=%d seed=%d: replay names %v != native names %v", k, seed, renames, names)
			}
			if !reflect.DeepEqual(st.PerProc, rst.PerProc) {
				t.Fatalf("k=%d seed=%d: replay per-proc counts diverged\nnative: %+v\nreplay: %+v", k, seed, st.PerProc, rst.PerProc)
			}
			if !reflect.DeepEqual(log.Events(), relog.Events()) {
				t.Fatalf("k=%d seed=%d: replay recorded a different log (%d vs %d events)", k, seed, relog.Len(), log.Len())
			}
			if err := CheckRenamingTrace(relog); err != nil {
				t.Fatalf("k=%d seed=%d: replayed execution not valid: %v", k, seed, err)
			}

			log, st, reads := runAACRecorded(shmem.NewNative(seed), k)
			if err := CheckCounterTrace(log); err != nil {
				t.Fatalf("k=%d seed=%d: recorded native AAC counter not monotone-consistent: %v", k, seed, err)
			}
			relog, rst, rereads := runAACRecorded(Replay(log), k)
			if !reflect.DeepEqual(reads, rereads) {
				t.Fatalf("k=%d seed=%d: AAC replay reads %v != native reads %v", k, seed, rereads, reads)
			}
			if !reflect.DeepEqual(st.PerProc, rst.PerProc) {
				t.Fatalf("k=%d seed=%d: AAC replay per-proc counts diverged\nnative: %+v\nreplay: %+v", k, seed, st.PerProc, rst.PerProc)
			}
			// Marks taken before a process's first step may land in another
			// order on the simulator, so the logs are compared by schedule.
			if !reflect.DeepEqual(log.Schedule(), relog.Schedule()) {
				t.Fatalf("k=%d seed=%d: AAC replay ran a different schedule (%d vs %d decisions)", k, seed, relog.Decisions(), log.Decisions())
			}
			if err := CheckCounterTrace(relog); err != nil {
				t.Fatalf("k=%d seed=%d: replayed AAC counter not monotone-consistent: %v", k, seed, err)
			}
		}
	}
}

// TestNativeCrashInjection crashes processes on the native runtime — the
// capability that used to exist only under simulation — and checks the
// crash accounting, the survivors' names, and that the crashed execution
// still replays bit-identically on the simulator.
func TestNativeCrashInjection(t *testing.T) {
	const k = 6
	for seed := uint64(1); seed <= 3; seed++ {
		// Crash points must sit below the shortest possible rename (≥ 7
		// steps even for an uncontended winner), so they fire under every
		// interleaving the Go scheduler produces.
		plan := NewFaultPlan().CrashAt(0, 0).CrashAt(4, 3)
		log, st, names := runNativeRecorded(t, k, seed, plan)

		if st.Crashed == nil || !st.Crashed[0] || !st.Crashed[4] {
			t.Fatalf("seed=%d: native crash plan did not fire: %v", seed, st.Crashed)
		}
		if got := st.PerProc[0].Steps(); got != 0 {
			t.Fatalf("seed=%d: process crashed at step 0 still took %d steps", seed, got)
		}
		if got := st.PerProc[4].Steps(); got > 3 {
			t.Fatalf("seed=%d: process crashed at step 3 took %d steps", seed, got)
		}
		if err := CheckRenamingTrace(log); err != nil {
			t.Fatalf("seed=%d: crashed native execution not valid: %v", seed, err)
		}

		rt := Replay(log)
		ex := New(rt, k)
		sa := newRenamer(rt)
		renames := make([]uint64, k)
		rst := ex.Run(renameBody(ex, sa, renames))
		if !reflect.DeepEqual(rst.Crashed, st.Crashed) {
			t.Fatalf("seed=%d: replay crash set %v != native %v", seed, rst.Crashed, st.Crashed)
		}
		for p := 0; p < k; p++ {
			if !st.Crashed[p] && renames[p] != names[p] {
				t.Fatalf("seed=%d: survivor %d renamed to %d on replay, %d natively", seed, p, renames[p], names[p])
			}
		}
	}
}

// TestNativeFaultsWithoutRecording arms only a FaultPlan (no recorder): the
// cheap-hook path with no serialization. Crashes fire; survivors' names
// stay unique.
func TestNativeFaultsWithoutRecording(t *testing.T) {
	const k = 8
	rt := shmem.NewNative(7)
	ex := New(rt, k)
	ex.Faults(NewFaultPlan().CrashAt(2, 4).CrashAt(5, 0))
	sa := newRenamer(rt)
	names := make([]uint64, k)
	st := ex.Run(func(p shmem.Proc) {
		names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
	})
	if !st.Crashed[2] || !st.Crashed[5] {
		t.Fatalf("crashes did not fire: %v", st.Crashed)
	}
	var surv []uint64
	for p := 0; p < k; p++ {
		if !st.Crashed[p] {
			surv = append(surv, names[p])
		}
	}
	if err := core.CheckUniqueInRange(surv, k); err != nil {
		t.Fatalf("survivor names invalid: %v", err)
	}
}

// TestCounterTraceChecking records a counter execution (simulated, then
// native) with bracketed marks and runs the monotone-consistency checker
// over the trace.
func TestCounterTraceChecking(t *testing.T) {
	const k = 4
	body := func(ex *Execution, c *core.MonotoneCounter) func(shmem.Proc) {
		return func(p shmem.Proc) {
			for i := 0; i < 3; i++ {
				ex.MarkIncStart(p)
				c.Inc(p)
				ex.MarkIncEnd(p)
				ex.MarkReadStart(p)
				ex.MarkRead(p, c.Read(p))
			}
		}
	}
	newCounter := func(mem shmem.Mem) *core.MonotoneCounter {
		return core.NewMonotoneCounterWith(newRenamer(mem), maxreg.NewUnbounded(mem))
	}

	srt := sim.New(11, sim.NewRandom(11))
	sex := New(srt, k)
	slog := sex.Record()
	sex.Run(body(sex, newCounter(srt)))
	if err := CheckCounterTrace(slog); err != nil {
		t.Fatalf("simulated counter trace failed the monotone checker: %v", err)
	}

	nrt := shmem.NewNative(11)
	nex := New(nrt, k)
	nlog := nex.Record()
	nex.Run(body(nex, newCounter(nrt)))
	if err := CheckCounterTrace(nlog); err != nil {
		t.Fatalf("native counter trace failed the monotone checker: %v", err)
	}

	// A trace that violates monotonicity must be rejected.
	bad := &EventLog{K: 2}
	bad.begin(2, 0, RuntimeSim)
	bad.append(Event{Proc: 0, Kind: EvMark, Tag: TagReadStart})
	bad.append(Event{Proc: 0, Kind: EvMark, Tag: TagRead, Val: 5})
	if err := CheckCounterTrace(bad); err == nil {
		t.Fatal("checker accepted a read of 5 with zero started increments")
	}
}

// TestRepeatedRunsReuseGroup pins the participant-lifecycle contract: on
// the native runtime repeated Runs on one Execution reuse the proc
// contexts, and with a fixed runtime seed every disarmed run is
// bit-identical (the RunGroup re-derivation semantics, now owned by exec).
func TestRepeatedRunsReuseGroup(t *testing.T) {
	const k = 4
	rt := shmem.NewNative(9)
	ex := New(rt, k)
	sa := newRenamer(rt)
	var first []uint64
	for round := 0; round < 3; round++ {
		if round > 0 {
			sa.Reset()
		}
		names := make([]uint64, k)
		ex.Run(func(p shmem.Proc) {
			names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
		})
		if err := core.CheckUniqueTight(names); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 {
			first = names
		}
	}
	_ = first
}

// TestNewRejectsOtherRuntimes: the native runtime and the simulator are
// the only runtimes; New panics on any other, naming its type.
func TestNewRejectsOtherRuntimes(t *testing.T) {
	type wrapped struct{ *shmem.Native }
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "exec.wrapped") {
			t.Fatalf("New on a wrapped native runtime panicked with %q, want the type named", msg)
		}
	}()
	New(wrapped{shmem.NewNative(1)}, 2)
}

// TestStopRecordingRemovesSimObserver: after StopRecording, a later Run on
// the (reset) simulator must not keep appending into the stale log.
func TestStopRecordingRemovesSimObserver(t *testing.T) {
	const k = 3
	rt := sim.New(1, sim.NewRandom(1))
	ex := New(rt, k)
	log := ex.Record()
	sa := newRenamer(rt)
	names := make([]uint64, k)
	ex.Run(renameBody(ex, sa, names))
	recorded := log.Len()
	if recorded == 0 {
		t.Fatal("recorded run produced an empty log")
	}
	ex.StopRecording()
	sa.Reset()
	rt.Reset(2, sim.NewRandom(2))
	ex.Run(renameBody(ex, sa, names))
	if got := log.Len(); got != recorded {
		t.Fatalf("stopped recording still appended: log grew %d -> %d events", recorded, got)
	}
}

// TestFaultPlanCrashes pins the crash-entry accessor the workload harness
// reports against.
func TestFaultPlanCrashes(t *testing.T) {
	plan := NewFaultPlan()
	if plan.Crashes() != 0 {
		t.Fatalf("empty plan reports %d crash entries", plan.Crashes())
	}
	plan.CrashAt(0, 5).CrashAt(3, 10).CrashAt(0, 7) // re-scheduling proc 0 is one entry
	if got := plan.Crashes(); got != 2 {
		t.Fatalf("plan reports %d crash entries, want 2", got)
	}
}
