package tas

import (
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

func adversaries(seed uint64) map[string]sim.Adversary {
	return map[string]sim.Adversary{
		"roundrobin": sim.NewRoundRobin(),
		"random":     sim.NewRandom(seed),
		"sequential": sim.NewSequential(),
		"anticoin":   sim.NewAntiCoin(seed),
		"laggard":    sim.NewLaggard(0),
	}
}

func TestUnitExactlyOneWinner(t *testing.T) {
	for name := range adversaries(0) {
		for seed := uint64(0); seed < 10; seed++ {
			adv := adversaries(seed)[name]
			rt := sim.New(seed, adv)
			u := NewUnit(rt)
			wins := make([]bool, 5)
			rt.Run(5, func(p shmem.Proc) {
				wins[p.ID()] = u.TestAndSet(p)
			})
			if n := countTrue(wins); n != 1 {
				t.Fatalf("adv=%s seed=%d: %d winners", name, seed, n)
			}
		}
	}
}

func TestUnitSoloWinsInOneStep(t *testing.T) {
	rt := sim.New(1, sim.NewRoundRobin())
	u := NewUnit(rt)
	var won bool
	st := rt.Run(1, func(p shmem.Proc) { won = u.TestAndSet(p) })
	if !won {
		t.Fatal("solo process must win")
	}
	if st.PerProc[0].Steps() != 1 {
		t.Fatalf("hardware TAS cost %d steps, want 1", st.PerProc[0].Steps())
	}
}

func TestTwoProcExactlyOneWinnerBothComplete(t *testing.T) {
	for name := range adversaries(0) {
		for seed := uint64(0); seed < 200; seed++ {
			adv := adversaries(seed)[name]
			rt := sim.New(seed, adv)
			ts := NewTwoProc(rt)
			var wins [2]bool
			rt.Run(2, func(p shmem.Proc) {
				wins[p.ID()] = ts.TestAndSetSide(p, p.ID())
			})
			if wins[0] == wins[1] {
				t.Fatalf("adv=%s seed=%d: wins=%v, want exactly one winner", name, seed, wins)
			}
		}
	}
}

func TestTwoProcSoloAlwaysWins(t *testing.T) {
	// The ghost-process invariant of renaming networks: a contender that
	// never meets an opponent must win, cheaply.
	for _, side := range []int{0, 1} {
		for seed := uint64(0); seed < 50; seed++ {
			rt := sim.New(seed, sim.NewRoundRobin())
			ts := NewTwoProc(rt)
			var won bool
			st := rt.Run(1, func(p shmem.Proc) {
				won = ts.TestAndSetSide(p, side)
			})
			if !won {
				t.Fatalf("side=%d seed=%d: solo contender lost", side, seed)
			}
			if st.PerProc[0].Steps() != 3 {
				t.Fatalf("solo TwoProc cost %d steps, want 3 (write, read, CAS)", st.PerProc[0].Steps())
			}
		}
	}
}

func TestTwoProcCrashSafety(t *testing.T) {
	// Crash one side at every step offset it reaches, under several coin
	// seeds: never two winners, and a survivor that loses must have
	// observed the crashed opponent.
	for victim := 0; victim < 2; victim++ {
		for seed := uint64(1); seed <= 4; seed++ {
			for at := uint64(0); ; at++ {
				adv := sim.NewCrashPlan(sim.NewRoundRobin(), map[int]uint64{victim: at})
				rt := sim.New(seed, adv)
				ts := NewTwoProc(rt)
				var wins [2]bool
				st := rt.Run(2, func(p shmem.Proc) {
					wins[p.ID()] = ts.TestAndSetSide(p, p.ID())
				})
				if wins[0] && wins[1] {
					t.Fatalf("victim=%d seed=%d at=%d: two winners", victim, seed, at)
				}
				if !st.Crashed[victim] {
					if at < 2 {
						t.Fatalf("victim=%d seed=%d: planned crash after %d steps did not fire, but the victim always writes and reads", victim, seed, at)
					}
					break // the victim finished before step at: every offset it reaches is covered
				}
				// A survivor may lose only if the victim entered the object
				// (wrote its register) before crashing.
				if !wins[1-victim] && st.PerProc[victim].Ops[shmem.OpWrite] == 0 {
					t.Fatalf("victim=%d seed=%d at=%d: survivor lost to a ghost", victim, seed, at)
				}
			}
		}
	}
}

func TestTwoProcRejectsBadSide(t *testing.T) {
	rt := sim.New(1, sim.NewRoundRobin())
	ts := NewTwoProc(rt)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.Run(1, func(p shmem.Proc) { ts.TestAndSetSide(p, 2) })
}

func TestTwoProcExhaustiveSchedules(t *testing.T) {
	// All 2^12 schedule prefixes × 16 coin seeds: exactly one winner and
	// both sides terminate, in every execution.
	const prefix = 12
	for mask := 0; mask < 1<<prefix; mask++ {
		bits := make([]int, prefix)
		for i := range bits {
			bits[i] = mask >> i & 1
		}
		for seed := uint64(0); seed < 16; seed++ {
			adv := sim.NewReplay(bits)
			rt := sim.New(seed, adv, sim.WithStepCap(100000))
			ts := NewTwoProc(rt)
			var wins [2]bool
			st := rt.Run(2, func(p shmem.Proc) {
				wins[p.ID()] = ts.TestAndSetSide(p, p.ID())
			})
			if st.StepCapHit {
				t.Fatalf("mask=%x seed=%d: livelock", mask, seed)
			}
			if wins[0] == wins[1] {
				t.Fatalf("mask=%x seed=%d: wins=%v", mask, seed, wins)
			}
		}
	}
}

func TestTwoProcCostProfile(t *testing.T) {
	// Expected O(1): the mean step count over seeds must be small, and the
	// worst case logarithmic-ish. Under round-robin with both present.
	var total, worst uint64
	const runs = 500
	for seed := uint64(0); seed < runs; seed++ {
		rt := sim.New(seed, sim.NewRandom(seed))
		ts := NewTwoProc(rt)
		st := rt.Run(2, func(p shmem.Proc) {
			ts.TestAndSetSide(p, p.ID())
		})
		s := st.MaxSteps()
		total += s
		if s > worst {
			worst = s
		}
	}
	if mean := float64(total) / runs; mean > 12 {
		t.Errorf("mean steps %.1f, want O(1) (≤ 12)", mean)
	}
	if worst > 80 {
		t.Errorf("worst steps %d over %d runs, want logarithmic tail", worst, runs)
	}
}

func TestRatRaceExactlyOneWinner(t *testing.T) {
	for name := range adversaries(0) {
		for seed := uint64(0); seed < 30; seed++ {
			adv := adversaries(seed)[name]
			rt := sim.New(seed, adv)
			rr := NewRatRace(rt, MakeTwoProc)
			const k = 9
			wins := make([]bool, k)
			rt.Run(k, func(p shmem.Proc) {
				wins[p.ID()] = rr.TestAndSet(p, uint64(p.ID())+1)
			})
			if n := countTrue(wins); n != 1 {
				t.Fatalf("adv=%s seed=%d: %d winners", name, seed, n)
			}
		}
	}
}

func TestRatRaceWithUnitTAS(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		rt := sim.New(seed, sim.NewRandom(seed))
		rr := NewRatRace(rt, MakeUnit)
		const k = 7
		wins := make([]bool, k)
		rt.Run(k, func(p shmem.Proc) {
			wins[p.ID()] = rr.TestAndSet(p, uint64(p.ID())+1)
		})
		if n := countTrue(wins); n != 1 {
			t.Fatalf("seed=%d: %d winners", seed, n)
		}
	}
}

func TestRatRaceSoloWins(t *testing.T) {
	rt := sim.New(1, sim.NewRoundRobin())
	rr := NewRatRace(rt, MakeTwoProc)
	var won bool
	st := rt.Run(1, func(p shmem.Proc) {
		won = rr.TestAndSet(p, 1)
	})
	if !won {
		t.Fatal("solo contender must win the RatRace")
	}
	if st.PerProc[0].Steps() > 16 {
		t.Fatalf("solo RatRace cost %d steps, want O(1)", st.PerProc[0].Steps())
	}
}

func TestRatRaceFastPathExactlyOneWinner(t *testing.T) {
	for name := range adversaries(0) {
		for seed := uint64(0); seed < 25; seed++ {
			adv := adversaries(seed)[name]
			rt := sim.New(seed, adv)
			rr := NewRatRaceWithFastPath(rt, MakeTwoProc)
			const k = 8
			wins := make([]bool, k)
			rt.Run(k, func(p shmem.Proc) {
				wins[p.ID()] = rr.TestAndSet(p, uint64(p.ID())+1)
			})
			if n := countTrue(wins); n != 1 {
				t.Fatalf("adv=%s seed=%d: %d winners", name, seed, n)
			}
		}
	}
}

func TestRatRaceFastPathSolo(t *testing.T) {
	rt := sim.New(1, sim.NewRoundRobin())
	rr := NewRatRaceWithFastPath(rt, MakeTwoProc)
	var won bool
	st := rt.Run(1, func(p shmem.Proc) {
		won = rr.TestAndSet(p, 1)
	})
	if !won {
		t.Fatal("solo contender must win via the fast path")
	}
	// Fast splitter (4 steps) + solo final TAS (3 steps).
	if st.PerProc[0].Steps() != 7 {
		t.Fatalf("solo fast-path cost %d steps, want 7", st.PerProc[0].Steps())
	}
	if rr.Registers() != 0 {
		t.Fatalf("fast path should not touch the tree; %d nodes allocated", rr.Registers())
	}
}

func TestRatRaceFastPathCrashSafety(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		victim := int(seed % 4)
		adv := sim.NewCrashPlan(sim.NewRandom(seed), map[int]uint64{victim: seed % 6})
		rt := sim.New(seed, adv)
		rr := NewRatRaceWithFastPath(rt, MakeTwoProc)
		const k = 4
		wins := make([]bool, k)
		st := rt.Run(k, func(p shmem.Proc) {
			wins[p.ID()] = rr.TestAndSet(p, uint64(p.ID())+1)
		})
		if n := countTrue(wins); n > 1 {
			t.Fatalf("seed=%d: %d winners", seed, n)
		}
		if !st.Crashed[victim] {
			t.Fatalf("seed=%d: planned crash of process %d did not fire", seed, victim)
		}
	}
}

func TestRatRaceAtMostOneWinnerUnderCrashes(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		crash := map[int]uint64{int(seed % 5): seed / 2, int(seed % 3): seed / 4}
		adv := sim.NewCrashPlan(sim.NewRandom(seed), crash)
		rt := sim.New(seed, adv)
		rr := NewRatRace(rt, MakeTwoProc)
		const k = 5
		wins := make([]bool, k)
		st := rt.Run(k, func(p shmem.Proc) {
			wins[p.ID()] = rr.TestAndSet(p, uint64(p.ID())+1)
		})
		if n := countTrue(wins); n > 1 {
			t.Fatalf("seed=%d: %d winners", seed, n)
		}
		if countTrue(st.Crashed) == 0 {
			t.Fatalf("seed=%d: crash plan %v fired no crash", seed, crash)
		}
	}
}

// TestRatRaceAdaptiveSteps: per-process step complexity grows
// polylogarithmically with contention.
func TestRatRaceAdaptiveSteps(t *testing.T) {
	worstAt := func(k int) uint64 {
		var worst uint64
		for seed := uint64(0); seed < 10; seed++ {
			rt := sim.New(seed, sim.NewRandom(seed))
			rr := NewRatRace(rt, MakeTwoProc)
			st := rt.Run(k, func(p shmem.Proc) {
				rr.TestAndSet(p, uint64(p.ID())+1)
			})
			if v := st.MaxSteps(); v > worst {
				worst = v
			}
		}
		return worst
	}
	w8, w64 := worstAt(8), worstAt(64)
	// An 8x contention increase must not cost anywhere near 8x the steps:
	// polylog growth means well under 4x here.
	if w64 > 4*w8 {
		t.Errorf("steps grew from %d (k=8) to %d (k=64); not adaptive", w8, w64)
	}
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}
