package phase_test

import (
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/phase"
	"repro/internal/shmem"
	"repro/internal/sim"
)

// phasedBody builds the canonical transition workload: every process
// increments across a Joined→Split→Joined double transition (driven by
// process 0 mid-flight) with bracketed marks, mixing fast and strict reads.
// The exec recorder turns it into a trace CheckCounterTrace can audit.
func phasedBody(ex *exec.Execution, c *phase.Counter, each int) func(p shmem.Proc) {
	return func(p shmem.Proc) {
		if p.ID() == 0 {
			c.SetMode(phase.Split)
		}
		for i := 0; i < each; i++ {
			ex.MarkIncStart(p)
			c.Inc(p)
			ex.MarkIncEnd(p)
			ex.MarkReadStart(p)
			ex.MarkRead(p, c.Read(p))
		}
		if p.ID() == 1 {
			ex.MarkReadStart(p)
			ex.MarkRead(p, c.ReadStrict(p))
		}
		if p.ID() == 0 {
			c.SetMode(phase.Joined)
		}
		ex.MarkIncStart(p)
		c.Inc(p)
		ex.MarkIncEnd(p)
		ex.MarkReadStart(p)
		ex.MarkRead(p, c.Read(p))
	}
}

// TestPhasedExactCount pins linearizable-grade exactness after quiescence
// under several adversarial schedules: transitions, epochs and cooperative
// merges lose and double-count nothing.
func TestPhasedExactCount(t *testing.T) {
	const k, each = 4, 6
	advs := map[string]func(seed uint64) sim.Adversary{
		"roundrobin": func(uint64) sim.Adversary { return sim.NewRoundRobin() },
		"random":     func(s uint64) sim.Adversary { return sim.NewRandom(s) },
	}
	for aname, adv := range advs {
		for seed := uint64(0); seed < 5; seed++ {
			rt := sim.New(seed, adv(seed))
			c := phase.NewAAC(rt, k, 2)
			ex := exec.New(rt, k)
			ex.Run(phasedBody(ex, c, each))
			rt.Reset(seed+100, sim.NewRoundRobin())
			var final, fast uint64
			rt.Run(1, func(p shmem.Proc) {
				final = c.ReadStrict(p)
				fast = c.Read(p)
			})
			want := uint64(k * (each + 1))
			if final != want || fast != want {
				t.Fatalf("%s seed=%d: strict=%d fast=%d, want %d",
					aname, seed, final, fast, want)
			}
		}
	}
}

// TestPhasedMonotoneTrace records transition-heavy executions on both
// runtimes and audits them: reads must stay totally ordered and inside
// [completed, started] across every phase change — the counter's
// correctness contract.
func TestPhasedMonotoneTrace(t *testing.T) {
	const k, each = 4, 5
	for seed := uint64(0); seed < 5; seed++ {
		srt := sim.New(seed, sim.NewRandom(seed))
		c := phase.NewAAC(srt, k, 2)
		sex := exec.New(srt, k)
		slog := sex.Record()
		sex.Run(phasedBody(sex, c, each))
		if err := exec.CheckCounterTrace(slog); err != nil {
			t.Fatalf("sim seed=%d: %v", seed, err)
		}

		nrt := shmem.NewNative(seed)
		nc := phase.NewAAC(nrt, k, 2)
		nex := exec.New(nrt, k)
		nlog := nex.Record()
		nex.Run(phasedBody(nex, nc, each))
		if err := exec.CheckCounterTrace(nlog); err != nil {
			t.Fatalf("native seed=%d: %v", seed, err)
		}
	}
}

// TestPhasedCrashStormSim sweeps crash positions across the whole execution
// — with epoch 2 many land inside the merge window, between the cell add
// and the spine refresh — and audits every trace. A crashed increment
// counts as started-but-never-completed; a half-done merge must never
// surface as a double count or a lost read. The final strict value must sit
// within [completed, started].
func TestPhasedCrashStormSim(t *testing.T) {
	const k, each = 4, 6
	var crashed int
	for seed := uint64(0); seed < 3; seed++ {
		for step := uint64(0); step < 30; step += 2 {
			rt := sim.New(seed, sim.NewRandom(seed))
			c := phase.NewAAC(rt, k, 2)
			ex := exec.New(rt, k)
			ex.Faults(exec.NewFaultPlan().CrashAt(1, step).CrashAt(2, step+3))
			log := ex.Record()
			// started/completed are plain counters: the simulator
			// serializes process steps, so the body needs no atomics.
			var started, completed uint64
			st := ex.Run(func(p shmem.Proc) {
				if p.ID() == 0 {
					c.SetMode(phase.Split)
				}
				for i := 0; i < each; i++ {
					started++
					ex.MarkIncStart(p)
					c.Inc(p)
					ex.MarkIncEnd(p)
					completed++
					ex.MarkReadStart(p)
					ex.MarkRead(p, c.Read(p))
				}
				if p.ID() == 0 {
					c.SetMode(phase.Joined)
				}
				started++
				ex.MarkIncStart(p)
				c.Inc(p)
				ex.MarkIncEnd(p)
				completed++
			})
			for _, cr := range st.Crashed {
				if cr {
					crashed++
				}
			}
			if err := exec.CheckCounterTrace(log); err != nil {
				t.Fatalf("seed=%d crash@%d: %v", seed, step, err)
			}
			rt.Reset(seed+999, sim.NewRoundRobin())
			var final uint64
			rt.Run(1, func(p shmem.Proc) { final = c.ReadStrict(p) })
			if final < completed || final > started {
				t.Fatalf("seed=%d crash@%d: strict=%d outside [completed=%d, started=%d]",
					seed, step, final, completed, started)
			}
		}
	}
	if crashed == 0 {
		t.Fatal("crash storm never fired")
	}
}

// TestPhasedCrashStormNative is the native leg: plan-injected crashes under
// the serializing recorder, swept across step positions, audited the same
// way (run with -race in CI).
func TestPhasedCrashStormNative(t *testing.T) {
	const k, each = 4, 6
	var crashed int
	for seed := uint64(0); seed < 2; seed++ {
		for step := uint64(0); step < 24; step += 3 {
			rt := shmem.NewNative(seed)
			c := phase.NewAAC(rt, k, 2)
			ex := exec.New(rt, k)
			ex.Faults(exec.NewFaultPlan().CrashAt(1, step).CrashAt(3, step+2))
			log := ex.Record()
			st := ex.Run(phasedBody(ex, c, each))
			for _, cr := range st.Crashed {
				if cr {
					crashed++
				}
			}
			if err := exec.CheckCounterTrace(log); err != nil {
				t.Fatalf("seed=%d crash@%d: %v", seed, step, err)
			}
		}
	}
	if crashed == 0 {
		t.Fatal("native crash storm never fired")
	}
}

// TestPhasedSimDeterministic pins replayability: the same (seed, adversary,
// workload) yields the same trace, event for event, and the same final
// value — phase transitions and cooperative merges included.
func TestPhasedSimDeterministic(t *testing.T) {
	const k, each = 4, 5
	run := func() ([]exec.Event, uint64) {
		rt := sim.New(42, sim.NewRandom(42))
		c := phase.NewAAC(rt, k, 2)
		ex := exec.New(rt, k)
		log := ex.Record()
		ex.Run(phasedBody(ex, c, each))
		rt.Reset(43, sim.NewRoundRobin())
		var final uint64
		rt.Run(1, func(p shmem.Proc) { final = c.ReadStrict(p) })
		return append([]exec.Event(nil), log.Events()...), final
	}
	evA, vA := run()
	evB, vB := run()
	if vA != vB {
		t.Fatalf("final values diverge: %d vs %d", vA, vB)
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Fatalf("event logs diverge: %d vs %d events", len(evA), len(evB))
	}
}

// TestPhasedReuseBitIdentical pins the Resettable contract at the counter
// level: reset-then-rerun produces the same trace and value as the first
// run (the serving-pool reuse invariant).
func TestPhasedReuseBitIdentical(t *testing.T) {
	const k, each = 4, 5
	rt := sim.New(7, sim.NewRandom(7))
	c := phase.NewAAC(rt, k, 2)
	pass := func() ([]exec.Event, uint64) {
		ex := exec.New(rt, k)
		log := ex.Record()
		ex.Run(phasedBody(ex, c, each))
		rt.Reset(8, sim.NewRoundRobin())
		var final uint64
		rt.Run(1, func(p shmem.Proc) { final = c.ReadStrict(p) })
		return append([]exec.Event(nil), log.Events()...), final
	}
	evA, vA := pass()
	c.Reset()
	rt.Reset(7, sim.NewRandom(7))
	evB, vB := pass()
	if vA != vB {
		t.Fatalf("final values diverge after Reset: %d vs %d", vA, vB)
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Fatalf("reset rerun diverges: %d vs %d events", len(evA), len(evB))
	}
}

// TestJoinedIncStepsByLanes pins the exact steps that 65,536 joined
// increments take, from zero, on one direct native proc, for spines of 1,
// 2, 4 and 8 lanes: 32, 90, 148 and 206 per increment. A lane count sizes
// the spine (2×lanes leaves), and the pool's default lane count follows
// GOMAXPROCS, so these are what a served joined increment costs at each
// size; a layout change that deepens a spine shows here as a diff.
func TestJoinedIncStepsByLanes(t *testing.T) {
	const incs = 1 << 16
	for _, c := range []struct {
		lanes int
		steps uint64
	}{{1, 2_097_220}, {2, 5_898_444}, {4, 9_699_668}, {8, 13_500_892}} {
		rt := shmem.NewNative(1)
		p := rt.NewProc(0)
		ctr := phase.NewAAC(rt, c.lanes, 1024)
		for range incs {
			ctr.Inc(p)
		}
		if got := p.StepsTaken(); got != c.steps {
			t.Errorf("%d lanes: %d joined increments took %d steps (%.2f each), want %d",
				c.lanes, incs, got, float64(got)/incs, c.steps)
		}
		if v := ctr.Read(p); v != incs {
			t.Fatalf("%d lanes: read %d after %d increments", c.lanes, v, incs)
		}
	}
}
