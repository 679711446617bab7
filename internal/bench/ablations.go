package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/llsc"
	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/splitter"
	"repro/internal/tas"
)

// E15Ablations probes the construction's design choices:
//
//   - base sorting network for the adaptive construction (Batcher OEM vs
//     the balanced network — both c = 2, different constants);
//   - comparator TAS flavor (randomized register protocol vs one hardware
//     CAS — the paper's deterministic-hardware remark);
//   - RatRace fast path (the [12] entry splitter) on the adaptive TAS.
func E15Ablations(cfg Config) *Table {
	t := &Table{
		ID:    "E15",
		Title: "Ablations: base network, TAS flavor, RatRace fast path",
		Claim: "constants move, asymptotics don't (paper §1 Discussion)",
		Cols:  []string{"variant", "k", "maxSteps", "maxComps/TAS", "tight/1winner"},
	}
	ks := []int{8, 64}
	if cfg.Quick {
		ks = []int{8}
	}

	// Each variant builds a per-k sweep: one runtime and one instantiated
	// graph per (variant, k), reset between seeds.
	type variant struct {
		name  string
		sweep func(cfg Config, k int) func(seed uint64) (st *shmem.Stats, ok bool, comps uint64)
	}
	variants := []variant{
		{"renaming/base=oem", renamingSweep(sortnet.BaseOEM, poolMaker)},
		{"renaming/base=balanced", renamingSweep(sortnet.BaseBalanced, poolMaker)},
		{"renaming/tas=hardware", renamingSweep(sortnet.BaseOEM, unitMaker)},
		{"ratrace/plain", ratRaceSweep(false)},
		{"ratrace/fastpath", ratRaceSweep(true)},
	}

	for _, v := range variants {
		for _, k := range ks {
			var steps, comps agg
			allOK := true
			run := v.sweep(cfg, k)
			for seed := 0; seed < cfg.Seeds; seed++ {
				st, ok, c := run(uint64(seed))
				if !ok {
					allOK = false
				}
				steps.add(float64(st.MaxSteps()))
				comps.add(float64(c))
			}
			t.AddRow(v.name, d(k), f1(steps.worst), f1(comps.worst),
				fmt.Sprintf("%v", allOK))
		}
	}
	t.Notes = append(t.Notes,
		"renaming rows: maxComps column counts comparator entries; ratrace rows: internal 2-TAS entries",
		"hardware TAS removes the coin-round register traffic — the paper's deterministic variant")
	return t
}

// E16Wakeup measures the Theorem 5 pipeline: renaming compiled to the
// lower bound's {LL, SC, move} instruction set, reduced to the wakeup
// problem. The measured expected step complexity must sit above Jayanti's
// c·log k and grow no faster than polylog — the sandwich that makes the
// paper's algorithm optimal.
func E16Wakeup(cfg Config) *Table {
	t := &Table{
		ID:    "E16",
		Title: "Wakeup via compiled renaming (Theorems 4–5)",
		Claim: "wakeup costs Ω(log k); renaming compiled to LL/SC solves it, so renaming inherits the bound",
		Cols:  []string{"k", "ones", "meanSteps", "steps/lgk", "aboveLgK"},
	}
	ks := []int{4, 16, 64}
	if cfg.Quick {
		ks = []int{4, 16}
	}
	for _, k := range ks {
		var mean agg
		ones := -1
		got := 0
		sw := newSweep(func(mem shmem.Mem) (func(shmem.Proc), func()) {
			sa := core.NewStrongAdaptive(mem, splitter.NewTree(mem), llsc.MakeCompiled)
			w := core.NewWakeup(mem, k, sa)
			return func(p shmem.Proc) {
				got += w.Wake(p, uint64(p.ID())+1) // serialized by the simulator
			}, w.Reset
		})
		for seed := 0; seed < cfg.Seeds; seed++ {
			got = 0
			st := sw.run(uint64(seed), k)
			ones = got
			mean.add(float64(st.TotalSteps()) / float64(k))
		}
		l := lg(float64(k))
		t.AddRow(d(k), d(ones), f1(mean.mean()), f2(mean.mean()/l),
			fmt.Sprintf("%v", mean.mean() >= l))
	}
	t.Notes = append(t.Notes,
		"'ones' must be exactly 1: the name-k holder is the unique waker (strong adaptivity)")
	return t
}

// renamingSweep builds the compile-once/reset-many runner for one strong
// adaptive renaming variant at one contention level.
func renamingSweep(base sortnet.Base, mkFor func(shmem.Mem) tas.SidedMaker) func(cfg Config, k int) func(uint64) (*shmem.Stats, bool, uint64) {
	return func(cfg Config, k int) func(uint64) (*shmem.Stats, bool, uint64) {
		names := make([]uint64, k)
		sw := newSweep(func(mem shmem.Mem) (func(shmem.Proc), func()) {
			sa := core.NewStrongAdaptiveWithBase(mem, splitter.NewTree(mem), mkFor(mem), base)
			return func(p shmem.Proc) {
				names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
			}, sa.Reset
		})
		return func(seed uint64) (*shmem.Stats, bool, uint64) {
			st := sw.run(seed, k)
			return st, core.CheckUniqueTight(names) == nil, st.MaxEvent(shmem.EvComparator)
		}
	}
}

// poolMaker and unitMaker adapt the TAS flavors to the per-runtime
// maker-factory shape of renamingSweep (hardware TAS needs no pooling).
func poolMaker(mem shmem.Mem) tas.SidedMaker { return tas.MakeTwoProcPool(mem) }
func unitMaker(shmem.Mem) tas.SidedMaker     { return tas.MakeUnit }

// ratRaceSweep builds the compile-once/reset-many runner for the RatRace
// fast-path ablation at one contention level.
func ratRaceSweep(fast bool) func(cfg Config, k int) func(uint64) (*shmem.Stats, bool, uint64) {
	return func(cfg Config, k int) func(uint64) (*shmem.Stats, bool, uint64) {
		wins := 0
		sw := newSweep(func(mem shmem.Mem) (func(shmem.Proc), func()) {
			var rr *tas.RatRace
			if fast {
				rr = tas.NewRatRaceWithFastPath(mem, tas.MakeTwoProcPool(mem))
			} else {
				rr = tas.NewRatRace(mem, tas.MakeTwoProcPool(mem))
			}
			return func(p shmem.Proc) {
				if rr.TestAndSet(p, uint64(p.ID())+1) {
					wins++ // serialized by the simulator
				}
			}, rr.Reset
		})
		return func(seed uint64) (*shmem.Stats, bool, uint64) {
			wins = 0
			st := sw.run(seed, k)
			return st, wins == 1, st.MaxEvent(shmem.EvTAS2Enter)
		}
	}
}
