package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/shmem"
)

// stepWise expands any adversary's burst grants into one decision per step,
// producing the schedule a burst-unaware runtime would execute: the chosen
// process is re-granted single steps while it stays ready, exactly like a
// runtime-executed burst (which also ends early only when the process
// finishes). It deliberately does not implement NonCrashing, so running
// under it also disables the runtime's single-ready fast path — comparing a
// raw adversary against its stepWise expansion therefore exercises burst
// consumption, decision reuse, and the solo fast path at once.
type stepWise struct {
	inner Adversary
	cur   int
	left  int
}

func (s *stepWise) Choose(v *View) Decision {
	if s.left > 0 && v.Ready[s.cur] {
		s.left--
		return Decision{Proc: s.cur}
	}
	d := s.inner.Choose(v)
	s.cur = d.Proc
	s.left = 0
	if !d.Crash && d.Burst > 1 {
		s.left = d.Burst - 1
	}
	return Decision{Proc: d.Proc, Crash: d.Crash}
}

// burstBody is a workload with uneven per-process lengths (so bursts end by
// process completion as well as by exhaustion), coin flips (so the adversary
// view changes), and CAS contention.
func burstBody(r shmem.CASReg) func(shmem.Proc) {
	return func(p shmem.Proc) {
		n := 10 + 7*p.ID()
		for i := 0; i < n; i++ {
			if p.Coin(2) == 1 {
				v := r.Read(p)
				r.CompareAndSwap(p, v, v+uint64(p.ID()))
			} else {
				r.Read(p)
			}
		}
	}
}

// runFingerprint executes one simulation and returns the full trace plus the
// per-process accounting as a comparable string.
func runFingerprint(t *testing.T, seed uint64, adv Adversary, k int) string {
	t.Helper()
	var b strings.Builder
	rt := New(seed, adv, WithTrace(func(e TraceEvent) {
		fmt.Fprintf(&b, "%d:%d:%s:%v\n", e.Clock, e.Proc, e.Op, e.Crash)
	}))
	st := rt.Run(k, burstBody(rt.NewCASReg(0)))
	fmt.Fprintf(&b, "crashed=%v cap=%v\n", st.Crashed, st.StepCapHit)
	for i := range st.PerProc {
		fmt.Fprintf(&b, "p%d=%+v\n", i, st.PerProc[i])
	}
	return b.String()
}

// TestBurstEquivalence checks the core burst contract: executing an
// adversary's burst grants is bit-identical — same trace, same step counts
// — to executing the same schedule one decision per step.
func TestBurstEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		burst func() Adversary
		plain func() Adversary
	}{
		{"sequential", func() Adversary { return NewSequential() },
			func() Adversary { return &stepWise{inner: NewSequential()} }},
		{"oscillator3", func() Adversary { return NewOscillator(3) },
			func() Adversary { return &stepWise{inner: NewOscillator(3)} }},
		{"oscillator7", func() Adversary { return NewOscillator(7) },
			func() Adversary { return &stepWise{inner: NewOscillator(7)} }},
		{"roundrobin-burst4", func() Adversary { return NewRoundRobinBurst(4) },
			func() Adversary { return &stepWise{inner: NewRoundRobinBurst(4)} }},
		{"roundrobin", func() Adversary { return NewRoundRobin() },
			func() Adversary { return &stepWise{inner: NewRoundRobin()} }},
		{"random", func() Adversary { return NewRandom(7) },
			func() Adversary { return &stepWise{inner: NewRandom(7)} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []int{1, 2, 5, 9} {
				for seed := uint64(0); seed < 5; seed++ {
					got := runFingerprint(t, seed, tc.burst(), k)
					want := runFingerprint(t, seed, tc.plain(), k)
					if got != want {
						t.Fatalf("k=%d seed=%d: burst and per-step executions diverge\nburst:\n%s\nper-step:\n%s",
							k, seed, got, want)
					}
				}
			}
		})
	}
}

// TestBurstScriptEquivalence pins a concrete case: an explicit bursty
// script (including a MaxBurst run-to-completion grant) against its
// step-by-step expansion.
func TestBurstScriptEquivalence(t *testing.T) {
	script := []Decision{
		{Proc: 2, Burst: 5}, {Proc: 0, Burst: 3}, {Proc: 1}, {Proc: 2, Burst: MaxBurst},
	}
	a := runFingerprint(t, 3, &scriptBursts{script: script}, 3)
	b := runFingerprint(t, 3, &stepWise{inner: &scriptBursts{script: script}}, 3)
	if a != b {
		t.Fatalf("bursty script and its expansion diverge:\n%s\nvs\n%s", a, b)
	}
}

// scriptBursts replays an explicit list of bursty decisions, then falls back
// to round robin.
type scriptBursts struct {
	script []Decision
	pos    int
	rr     RoundRobin
}

func (s *scriptBursts) Choose(v *View) Decision {
	for s.pos < len(s.script) {
		d := s.script[s.pos]
		s.pos++
		if d.Proc >= 0 && d.Proc < len(v.Ready) && v.Ready[d.Proc] {
			return d
		}
	}
	return s.rr.Choose(v)
}

// TestReplayEquivalence runs randomly generated (seed, adversary) pairs
// twice and requires bit-identical traces — the deterministic-replay
// guarantee across every adversary kind, burst lengths, and crash plans.
func TestReplayEquivalence(t *testing.T) {
	gen := rng.New(0xC0FFEE)
	for trial := 0; trial < 40; trial++ {
		seed := gen.Next()
		kind := gen.Intn(8)
		k := 1 + gen.Intn(9)
		aseed := gen.Next()
		burst := 1 + gen.Intn(6)
		victim := gen.Intn(k)
		crashAt := map[int]uint64{gen.Intn(k): gen.Uint64n(40)}
		mk := func() Adversary {
			var a Adversary
			switch kind {
			case 0:
				a = NewRoundRobin()
			case 1:
				a = NewRoundRobinBurst(burst)
			case 2:
				a = NewRandom(aseed)
			case 3:
				a = NewSequential()
			case 4:
				a = NewAntiCoin(aseed)
			case 5:
				a = NewLaggard(victim)
			case 6:
				a = NewOscillator(burst)
			case 7:
				a = NewCrashPlan(NewRoundRobinBurst(burst), crashAt)
			}
			return a
		}
		x := runFingerprint(t, seed, mk(), k)
		y := runFingerprint(t, seed, mk(), k)
		if x != y {
			t.Fatalf("trial %d (kind=%d k=%d): identical (seed, adversary) replayed differently\n%s\nvs\n%s",
				trial, kind, k, x, y)
		}
	}
}

// TestCrashPlanFiresInsideBurst checks that a crash scheduled mid-burst is
// not skipped: CrashPlan expands inner bursts so the plan is consulted at
// every step boundary, as it was under the one-step-at-a-time scheduler.
func TestCrashPlanFiresInsideBurst(t *testing.T) {
	// Sequential grants MaxBurst; the crash for process 0 is planned after
	// its 5th step, well inside its first burst.
	adv := NewCrashPlan(NewSequential(), map[int]uint64{0: 5})
	rt := New(1, adv)
	r := rt.NewReg(0)
	st := rt.Run(2, func(p shmem.Proc) {
		for i := 0; i < 50; i++ {
			r.Read(p)
		}
	})
	if !st.Crashed[0] {
		t.Fatal("planned crash did not fire inside the burst")
	}
	if got := st.PerProc[0].Steps(); got != 5 {
		t.Fatalf("process 0 took %d steps before crashing, want 5", got)
	}
	if got := st.PerProc[1].Steps(); got != 50 {
		t.Fatalf("survivor took %d steps, want 50", got)
	}
}

// TestBurstStepCap checks that burst grants are clamped at the step budget:
// a MaxBurst grant must not overshoot the cap.
func TestBurstStepCap(t *testing.T) {
	rt := New(1, NewSequential(), WithStepCap(100))
	r := rt.NewReg(0)
	st := rt.Run(2, func(p shmem.Proc) {
		for {
			r.Read(p)
		}
	})
	if !st.StepCapHit {
		t.Fatal("expected StepCapHit")
	}
	if st.TotalSteps() != 100 {
		t.Fatalf("run took %d steps, want exactly the 100-step budget", st.TotalSteps())
	}
}

// TestConcurrentEarlyPanics is the regression test for the panic-recording
// race of the former goroutine runtime: every process panics before its
// first step. Exactly one panic value must surface from Run, all processes
// must be marked crashed, and the run must be race-free (the sim tests run
// under -race in CI).
func TestConcurrentEarlyPanics(t *testing.T) {
	rt := New(1, NewRoundRobin())
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected a panic to propagate")
		}
		if s, ok := v.(string); !ok || !strings.HasPrefix(s, "boom-") {
			t.Fatalf("unexpected panic value %v", v)
		}
	}()
	rt.Run(8, func(p shmem.Proc) {
		panic(fmt.Sprintf("boom-%d", p.ID()))
	})
}

// TestSoloFastPathMatchesGeneralPath runs the same execution with the solo
// fast path enabled (NonCrashing adversary) and disabled (the same schedule
// behind a wrapper that hides the marker) and requires identical traces.
func TestSoloFastPathMatchesGeneralPath(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		fast := runFingerprint(t, seed, NewRandom(seed), 4)
		slow := runFingerprint(t, seed, &hideMarker{NewRandom(seed)}, 4)
		if fast != slow {
			t.Fatalf("seed %d: solo fast path changed the execution\n%s\nvs\n%s", seed, fast, slow)
		}
	}
}

// hideMarker forwards Choose but hides the inner adversary's NonCrashing
// marker from the runtime.
type hideMarker struct{ inner Adversary }

func (h *hideMarker) Choose(v *View) Decision { return h.inner.Choose(v) }
