package renaming_test

import (
	"reflect"
	"testing"

	renaming "repro"
)

// recordedRename runs one recorded (optionally crash-injected) k-process
// renaming execution on rt through the facade's execution layer.
func recordedRename(rt renaming.Runtime, k int, plan *renaming.FaultPlan) (*renaming.EventLog, *renaming.Stats, []uint64) {
	ex := renaming.NewExecution(rt, k)
	if plan != nil {
		ex.Faults(plan)
	}
	log := ex.Record()
	ren := renaming.NewRenaming(rt)
	names := make([]uint64, k)
	st := ex.Run(func(p renaming.Proc) {
		n := ren.Rename(p, uint64(p.ID())+1)
		names[p.ID()] = n
		ex.MarkName(p, n)
	})
	return log, st, names
}

// TestExecutionDeterminismFacade pins the acceptance criterion at the
// facade: same (seed, adversary, FaultPlan) ⇒ identical EventLog on the
// simulator.
func TestExecutionDeterminismFacade(t *testing.T) {
	const k = 6
	plan := func() *renaming.FaultPlan {
		return renaming.CrashAtStep(map[int]uint64{1: 4, 4: 20})
	}
	for seed := uint64(0); seed < 3; seed++ {
		logA, _, _ := recordedRename(renaming.NewSim(seed, renaming.RandomSchedule(seed)), k, plan())
		logB, _, _ := recordedRename(renaming.NewSim(seed, renaming.RandomSchedule(seed)), k, plan())
		if !reflect.DeepEqual(logA.Events(), logB.Events()) {
			t.Fatalf("seed %d: same (seed, adversary, plan) recorded different logs", seed)
		}
		if err := renaming.CheckRenamingTrace(logA); err != nil {
			t.Fatalf("seed %d: recorded execution invalid: %v", seed, err)
		}
	}
}

// TestNativeRecordReplayFacade pins the cross-runtime acceptance criterion
// at the facade: a crash-injected execution recorded on the native runtime
// replays bit-identically through the simulator — same names, same
// per-proc counts, checker-clean.
func TestNativeRecordReplayFacade(t *testing.T) {
	const k = 6
	for seed := uint64(1); seed <= 3; seed++ {
		rt := renaming.NewNative(seed)
		log, st, names := recordedRename(rt, k, renaming.CrashAtStep(map[int]uint64{2: 4}))
		if err := renaming.CheckRenamingTrace(log); err != nil {
			t.Fatalf("seed %d: native recording invalid: %v", seed, err)
		}

		srt := renaming.Replay(log)
		ren := renaming.NewRenaming(srt)
		renames := make([]uint64, k)
		rst := srt.Run(k, func(p renaming.Proc) {
			renames[p.ID()] = ren.Rename(p, uint64(p.ID())+1)
		})
		if !reflect.DeepEqual(rst.Crashed, st.Crashed) {
			t.Fatalf("seed %d: replay crash set %v != native %v", seed, rst.Crashed, st.Crashed)
		}
		if !reflect.DeepEqual(rst.PerProc, st.PerProc) {
			t.Fatalf("seed %d: replay per-proc counts diverged from the native recording", seed)
		}
		for p := 0; p < k; p++ {
			if !st.Crashed[p] && renames[p] != names[p] {
				t.Fatalf("seed %d: survivor %d got name %d on replay, %d natively", seed, p, renames[p], names[p])
			}
		}
	}
}

// TestCounterTraceFacade records a native counter execution with bracketed
// marks and checks monotone consistency over the trace.
func TestCounterTraceFacade(t *testing.T) {
	const k = 4
	rt := renaming.NewNative(3)
	ex := renaming.NewExecution(rt, k)
	log := ex.Record()
	ctr := renaming.NewCounter(rt, renaming.WithHardwareTAS())
	ex.Run(func(p renaming.Proc) {
		for i := 0; i < 3; i++ {
			ex.MarkIncStart(p)
			ctr.Inc(p)
			ex.MarkIncEnd(p)
			ex.MarkReadStart(p)
			ex.MarkRead(p, ctr.Read(p))
		}
	})
	if err := renaming.CheckCounterTrace(log); err != nil {
		t.Fatalf("native counter trace failed monotone consistency: %v", err)
	}
}

// TestPoolExecFaults drives fault injection through a pooled instance: the
// serving engine's Execute path and the execution layer are the same
// machinery, so a checked-out instance can run chaos executions and recycle
// cleanly afterwards.
func TestPoolExecFaults(t *testing.T) {
	const k = 5
	pool := renaming.NewRenamingPool(renaming.WithShards(1), renaming.WithPerShard(1))
	in := pool.Get()
	ex := in.Exec(k)
	ex.Faults(renaming.CrashAtStep(map[int]uint64{0: 2}))
	names := make([]uint64, k)
	st := ex.Run(func(p renaming.Proc) {
		names[p.ID()] = in.Obj.Rename(p, uint64(p.ID())+1)
	})
	if st.Crashed == nil || !st.Crashed[0] {
		t.Fatalf("pooled chaos execution: crash did not fire (%v)", st.Crashed)
	}
	in.Put()

	// The recycled instance must serve a clean tight execution again.
	stats := pool.Execute(k, func(p renaming.Proc, sa *renaming.StrongAdaptive) {
		names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
	})
	if stats.Crashed != nil {
		t.Fatalf("disarmed pooled execution reported crash accounting: %v", stats.Crashed)
	}
	seen := make(map[uint64]bool)
	for p, n := range names {
		if n < 1 || n > k || seen[n] {
			t.Fatalf("post-chaos checkout not tight: proc %d got %d (names %v)", p, n, names)
		}
		seen[n] = true
	}
}

// TestParseFaultPlan pins the one crash-spec syntax that renameload -faults
// and renametrace -crash share, one row per case.
func TestParseFaultPlan(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want map[int]uint64 // nil: a nil plan
		err  bool
	}{
		{spec: ""},
		{spec: ","},
		{spec: " , ,"},
		{spec: "2@15,4@60", want: map[int]uint64{2: 15, 4: 60}},
		{spec: "0@0", want: map[int]uint64{0: 0}},
		{spec: " 2@5", want: map[int]uint64{2: 5}},
		{spec: "2@5,", want: map[int]uint64{2: 5}},
		{spec: ",2@5,,3@7 ", want: map[int]uint64{2: 5, 3: 7}},
		{spec: "2 @ 5", want: map[int]uint64{2: 5}},
		{spec: "1@8,1@20", want: map[int]uint64{1: 20}},
		{spec: "-1@5", err: true},
		{spec: "x@5", err: true},
		{spec: "@5", err: true},
		{spec: "25", err: true},
		{spec: "2@", err: true},
		{spec: "2@-5", err: true},
		{spec: "2@x", err: true},
		{spec: "2@5@6", err: true},
		{spec: "2@18446744073709551616", err: true},
		{spec: "2@5,bad", err: true},
	} {
		got, err := renaming.ParseFaultPlan(tc.spec)
		switch {
		case tc.err:
			if err == nil {
				t.Errorf("%q: accepted, want an error", tc.spec)
			}
		case err != nil:
			t.Errorf("%q: %v", tc.spec, err)
		case tc.want == nil:
			if got != nil {
				t.Errorf("%q: got a plan with %d crashes, want nil", tc.spec, got.Crashes())
			}
		case !reflect.DeepEqual(got, renaming.CrashAtStep(tc.want)):
			t.Errorf("%q: got %+v, want the plan of %v", tc.spec, got, tc.want)
		}
	}
}
