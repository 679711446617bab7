package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/shmem"
)

// reuseAdversaries enumerates (name, fresh constructor) pairs covering every
// schedule family the sweep engine rearms, including a crash-injecting one.
func reuseAdversaries(seed uint64) []struct {
	name string
	mk   func() Adversary
} {
	return []struct {
		name string
		mk   func() Adversary
	}{
		{"random", func() Adversary { return NewRandom(seed) }},
		{"rr-burst", func() Adversary { return NewRoundRobinBurst(4) }},
		{"oscillator", func() Adversary { return NewOscillator(8) }},
		{"anticoin", func() Adversary { return NewAntiCoin(seed) }},
		{"laggard", func() Adversary { return NewLaggard(1) }},
		{"sequential", func() Adversary { return NewSequential() }},
		{"crashplan", func() Adversary {
			return NewCrashPlan(NewRandom(seed), map[int]uint64{0: 9, 3: 25})
		}},
	}
}

// TestReuseRunsBitIdentical pins the WithReuse contract: cycling Reset+Run on
// one reusing runtime produces, for every (seed, adversary), exactly the
// stats and trace a fresh non-reusing runtime produces — persistent
// coroutines, in-band crash delivery, and buffer reuse change nothing.
func TestReuseRunsBitIdentical(t *testing.T) {
	const k = 5
	for seed := uint64(0); seed < 6; seed++ {
		for _, tc := range reuseAdversaries(seed) {
			var wantTrace, gotTrace []TraceEvent

			fresh := New(seed, tc.mk(), WithTrace(func(ev TraceEvent) {
				wantTrace = append(wantTrace, ev)
			}))
			want := fresh.Run(k, contendedBody(fresh))

			reused := New(seed+999, NewRandom(seed+999), WithReuse(),
				WithTrace(func(ev TraceEvent) {
					gotTrace = append(gotTrace, ev)
				}))
			arena := reused.NewRegs(9)
			head := arena.CASReg(0)
			body := func(p shmem.Proc) {
				for i := 0; i < 6; i++ {
					s := arena.Reg(1 + int(p.Coin(8)))
					s.Write(p, uint64(p.ID())+1)
					for {
						h := head.Read(p)
						if head.CompareAndSwap(p, h, h+s.Read(p)) {
							break
						}
					}
				}
			}
			reused.Run(k, body) // dirty the run state first
			defer reused.Close()

			gotTrace = gotTrace[:0]
			arena.Reset()
			reused.Reset(seed, tc.mk())
			got := reused.Run(k, body)

			if !reflect.DeepEqual(want, got) {
				t.Errorf("seed %d %s: reused run stats diverged\nfresh: %+v\nreuse: %+v",
					seed, tc.name, want, got)
			}
			if tc.name == "crashplan" && !(want.Crashed[0] && want.Crashed[3]) {
				t.Errorf("seed %d: planned crashes did not fire: %v", seed, want.Crashed)
			}
			if !reflect.DeepEqual(wantTrace, gotTrace) {
				t.Errorf("seed %d %s: reused run trace diverged (%d vs %d events)",
					seed, tc.name, len(wantTrace), len(gotTrace))
			}
		}
	}
}

// TestReuseSurvivesCrashes checks that a crashed process's coroutine remains
// usable: crash-heavy runs alternate with crash-free runs on one runtime and
// each stays bit-identical to its fresh-runtime reference.
func TestReuseSurvivesCrashes(t *testing.T) {
	const k = 4
	rt := New(0, NewSequential(), WithReuse())
	defer rt.Close()
	arena := rt.NewRegs(9)
	head := arena.CASReg(0)
	body := func(p shmem.Proc) {
		for i := 0; i < 6; i++ {
			s := arena.Reg(1 + int(p.Coin(8)))
			s.Write(p, uint64(p.ID())+1)
			for {
				h := head.Read(p)
				if head.CompareAndSwap(p, h, h+s.Read(p)) {
					break
				}
			}
		}
	}
	rt.Run(k, body)

	for seed := uint64(0); seed < 8; seed++ {
		crash := seed%2 == 0
		mk := func() Adversary {
			if crash {
				return NewCrashPlan(NewRandom(seed), map[int]uint64{int(seed % k): 7})
			}
			return NewRandom(seed)
		}

		fresh := New(seed, mk())
		want := fresh.Run(k, contendedBody(fresh))

		arena.Reset()
		rt.Reset(seed, mk())
		got := rt.Run(k, body)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d (crash=%v): reused run diverged\nfresh: %+v\nreuse: %+v",
				seed, crash, want, got)
		}
		if crash && !got.Crashed[seed%k] {
			t.Fatalf("seed %d: planned crash did not land", seed)
		}
	}
}

// TestReuseProcCountChange checks that changing k between runs respawns the
// coroutine set and still matches a fresh runtime.
func TestReuseProcCountChange(t *testing.T) {
	rt := New(1, NewRandom(1), WithReuse())
	defer rt.Close()
	arena := rt.NewRegs(9)
	head := arena.CASReg(0)
	body := func(p shmem.Proc) {
		for i := 0; i < 6; i++ {
			s := arena.Reg(1 + int(p.Coin(8)))
			s.Write(p, uint64(p.ID())+1)
			for {
				h := head.Read(p)
				if head.CompareAndSwap(p, h, h+s.Read(p)) {
					break
				}
			}
		}
	}
	for _, k := range []int{3, 3, 7, 2, 7} {
		fresh := New(uint64(k), NewRandom(uint64(k)))
		want := fresh.Run(k, contendedBody(fresh))

		arena.Reset()
		rt.Reset(uint64(k), NewRandom(uint64(k)))
		got := rt.Run(k, body)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("k=%d: reused run diverged", k)
		}
	}
}

// crashAtFive is a rearmable crash-injecting test adversary: round-robin
// until proc 0 has completed five steps, then crash it.
type crashAtFive struct {
	rr    RoundRobin
	fired bool
}

func (a *crashAtFive) rearm() { a.rr.cursor = 0; a.fired = false }

func (a *crashAtFive) Choose(v *View) Decision {
	d := a.rr.Choose(v)
	d.Burst = 0
	if d.Proc == 0 && !a.fired && v.Steps[0] >= 5 {
		a.fired = true
		d.Crash = true
	}
	return d
}

// TestReuseSteadyStateAllocFree pins the tentpole property: with WithReuse,
// the Reset + adversary-rearm + Run cycle allocates nothing — including runs
// that crash processes (the in-band crash delivery must not allocate either).
func TestReuseSteadyStateAllocFree(t *testing.T) {
	rt := New(1, NewRandom(1), WithReuse())
	defer rt.Close()
	arena := rt.NewRegs(9)
	head := arena.CASReg(0)
	body := func(p shmem.Proc) {
		for i := 0; i < 6; i++ {
			s := arena.Reg(1 + int(p.Coin(8)))
			s.Write(p, uint64(p.ID())+1)
			for {
				h := head.Read(p)
				if head.CompareAndSwap(p, h, h+s.Read(p)) {
					break
				}
			}
		}
	}
	rt.Run(6, body)

	adv := NewRandom(0)
	seed := uint64(0)
	if got := testing.AllocsPerRun(200, func() {
		seed++
		adv.Reseed(seed)
		arena.Reset()
		rt.Reset(seed, adv)
		rt.Run(6, body)
	}); got != 0 {
		t.Fatalf("reuse steady state allocates %.1f allocs/run, want 0", got)
	}

	crasher := &crashAtFive{}
	rt.Reset(1, crasher)
	rt.Run(6, body)
	if got := testing.AllocsPerRun(200, func() {
		seed++
		crasher.rearm()
		arena.Reset()
		rt.Reset(seed, crasher)
		rt.Run(6, body)
	}); got != 0 {
		t.Fatalf("crash-run steady state allocates %.1f allocs/run, want 0", got)
	}
}

// TestCloseReapsCoroutines checks Close terminates the parked coroutines (no
// goroutine leak across many short-lived reusing runtimes).
func TestCloseReapsCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		rt := New(uint64(i), NewSequential(), WithReuse())
		rt.Run(8, func(p shmem.Proc) { p.Coin(2) })
		rt.Close()
	}
	for wait := 0; wait < 100; wait++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("goroutines leaked: %d before, %d after Close cycle",
		base, runtime.NumGoroutine())
}
