package sweep

import (
	"repro/internal/core"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sortnet"
	"repro/internal/tas"
)

// advSet holds one rearmable adversary per family. Stateful families are
// reset in place per execution; seeded families are reseeded from the
// task's seed, producing the decision stream a freshly constructed
// adversary with that seed would.
type advSet struct {
	random *sim.Random
	rr     *sim.RoundRobin
	osc    *sim.Oscillator
	anti   *sim.AntiCoin
	lag    *sim.Laggard
	seq    sim.Sequential
}

func newAdvSet() *advSet {
	return &advSet{
		random: sim.NewRandom(0),
		rr:     sim.NewRoundRobin(),
		osc:    sim.NewOscillator(1),
		anti:   sim.NewAntiCoin(0),
		lag:    sim.NewLaggard(0),
	}
}

// arm returns the family adversary for spec, rearmed for a run with k
// processes and the given seed.
func (s *advSet) arm(spec AdvSpec, seed uint64, k int) sim.Adversary {
	switch spec.Kind {
	case AdvRandom:
		s.random.Reseed(seed)
		return s.random
	case AdvRoundRobin:
		s.rr.Burst = spec.Burst
		s.rr.Rewind()
		return s.rr
	case AdvOscillator:
		s.osc.Burst = spec.Burst
		if s.osc.Burst < 1 {
			s.osc.Burst = 1
		}
		s.osc.Rewind()
		return s.osc
	case AdvAntiCoin:
		s.anti.Reseed(seed)
		return s.anti
	case AdvLaggard:
		s.lag.Victim = spec.Victim % k
		s.lag.Rewind()
		return s.lag
	default:
		return s.seq
	}
}

// slot is one arena entry: a reusable runtime with the object graph
// instantiated once, the execution body bound to reusable result buffers,
// and the per-run scratch the evaluator reads.
type slot struct {
	spec ObjectSpec
	rt   *sim.Runtime
	body func(p shmem.Proc)

	reset func() // object-graph reset
	// names[i] is process i's result: its acquired name (rename kinds) or
	// its counter-read value. Cleared before each run; 0 means the process
	// crashed before finishing.
	names [maxProcs]uint64
	// bad counts in-body counter-consistency violations (KindCounter).
	bad uint64
}

// renameRecipe instantiates the object for spec on mem and returns the
// renamer plus its reset. Blueprints are compiled once process-wide.
func buildSlot(spec ObjectSpec, stepCap uint64) *slot {
	sl := &slot{spec: spec}
	sl.rt = sim.New(0, sl.seqSeed(), sim.WithReuse(), sim.WithStepCap(stepCap))
	switch spec.Kind {
	case KindRenaming:
		sa := core.CompileStrongAdaptive(sortnet.BaseOEM).Instantiate(sl.rt, tas.MakeUnit)
		sl.reset = sa.Reset
		sl.body = func(p shmem.Proc) {
			sl.names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
		}
	case KindBitBatching:
		bb := core.CompileBitBatching(spec.N).Instantiate(sl.rt, tas.MakeUnit)
		sl.reset = bb.Reset
		sl.body = func(p shmem.Proc) {
			sl.names[p.ID()] = bb.Rename(p, uint64(p.ID())+1)
		}
	case KindCounter:
		c := core.NewMonotoneCounter(sl.rt, tas.MakeUnit)
		sl.reset = c.Reset
		k2 := uint64(2 * spec.K)
		sl.body = func(p shmem.Proc) {
			c.Inc(p)
			v := c.Read(p)
			sl.names[p.ID()] = v
			// Monotone consistency, checked inline: the read started after
			// this process's own increment completed, so it must count it;
			// and it cannot exceed the number of increments ever started.
			if v < 1 || v > k2 {
				sl.bad++
			}
			c.Inc(p)
		}
	}
	return sl
}

// seqSeed is the throwaway adversary the slot's runtime is constructed
// with; every execution Resets it away.
func (sl *slot) seqSeed() sim.Adversary { return sim.NewSequential() }

// run executes one (seed, adversary) pair on the slot and returns the
// stats. The caller owns clearing/reading names and bad around it.
func (sl *slot) run(seed uint64, adv sim.Adversary) *shmem.Stats {
	for i := 0; i < sl.spec.K; i++ {
		sl.names[i] = 0
	}
	sl.bad = 0
	sl.reset()
	sl.rt.Reset(seed, adv)
	return sl.rt.Run(sl.spec.K, sl.body)
}

// arena is one worker's long-lived execution state: a slot per object
// (built lazily, so a worker that never touches an object never pays its
// instantiation), the rearmable adversary families, and the crash plan.
type arena struct {
	slots   []*slot
	advs    *advSet
	crash   sim.CrashPlan
	stepCap uint64
}

func newArena(objects []ObjectSpec, stepCap uint64) *arena {
	return &arena{
		slots:   make([]*slot, len(objects)),
		advs:    newAdvSet(),
		stepCap: stepCap,
	}
}

// slot returns the arena's slot for object index i, building it on first
// use.
func (a *arena) slot(objects []ObjectSpec, i int) *slot {
	if a.slots[i] == nil {
		a.slots[i] = buildSlot(objects[i], a.stepCap)
	}
	return a.slots[i]
}

// crashes returns inner wrapped in the arena's crash plan, rearmed in place
// with plan's crash points for a k-process run; an empty plan returns inner.
// exec.FaultPlan arms the same sim.CrashPlan, so a schedule observed here
// re-records identically when a worst case is harvested.
func (a *arena) crashes(inner sim.Adversary, plan []CrashAt, k int) sim.Adversary {
	if len(plan) == 0 {
		return inner
	}
	a.crash.Rearm(inner, k)
	for _, c := range plan {
		a.crash.CrashAt(c.Proc, c.Step)
	}
	return &a.crash
}

// close reaps every slot's parked coroutines.
func (a *arena) close() {
	for _, sl := range a.slots {
		if sl != nil {
			sl.rt.Close()
		}
	}
}
