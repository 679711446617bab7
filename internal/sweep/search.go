package sweep

import (
	"math"

	"repro/internal/rng"
)

// Search mode hunts worst-case executions instead of enumerating a grid:
// per object, a handful of independent annealing chains walk the space of
// (adversary decision seed, crash plan) pairs, keeping mutations that
// increase the maximum per-process step count and accepting regressions
// with a temperature that cools linearly to zero. Every execution a chain
// visits — accepted or not — flows into the same accumulators as grid
// tasks, so violations found along the way are never lost.
//
// Each chain is a pure function of its task index: the decision RNG
// derives from (runtime seed, chain index), so the harvested worst cases
// are bit-identical across worker counts and task interleavings, exactly
// like the grid.

// chainState is one annealing chain's current point: an adversary seed and
// a crash plan, both mutable in place.
type chainState struct {
	advSeed uint64
	plan    [maxPlanCrashes]CrashAt
	nPlan   int32
}

// searchMaxStep bounds proposed crash positions: past the objects' typical
// step counts a crash point never fires, which the tweak mutation can
// still discover by walking upward.
const searchMaxStep = 96

// runChain executes one annealing chain (search-mode task c).
func (w *worker) runChain(c int) {
	e := w.eng
	sp := e.sp
	obj, chain := c/e.chains, c%e.chains
	sl := w.arena.slot(sp.Objects, obj)
	k := sl.spec.K
	seed := sp.Seeds[chain%len(sp.Seeds)]
	r := rng.Derived(seed, uint64(c)+0x5eed)

	cur := chainState{advSeed: r.Next()}
	var curE uint64
	for i := 0; i < e.iters; i++ {
		cand := cur
		if i > 0 {
			cand.mutate(&r, k)
		}

		w.arena.advs.random.Reseed(cand.advSeed)
		adv := w.arena.crashes(w.arena.advs.random, cand.plan[:cand.nPlan], k)
		st := sl.run(seed, adv)
		ref := runRef{
			steps:   st.MaxSteps(),
			task:    int32(c),
			iter:    int32(i),
			seed:    seed,
			advIdx:  -1,
			advSeed: cand.advSeed,
			planIdx: -1,
			plan:    cand.plan,
			nPlan:   cand.nPlan,
		}
		w.accs[obj].add(ref, st, sl.names[:k], evaluate(sl, st))

		switch {
		case i == 0, ref.steps >= curE:
			cur, curE = cand, ref.steps
		default:
			// Cooling acceptance: early on, almost any downhill move is
			// taken (escape local maxima); by the end only uphill survives.
			t := 6.0 * (1.0 - float64(i)/float64(e.iters))
			if r.Float64() < math.Exp(-float64(curE-ref.steps)/t) {
				cur, curE = cand, ref.steps
			}
		}
	}
}

// mutate proposes one neighbor: reseed the adversary, add or resample a
// crash point, drop one, or nudge one's position.
func (s *chainState) mutate(r *rng.SplitMix64, k int) {
	switch r.Intn(4) {
	case 0:
		s.advSeed = r.Next()
	case 1:
		if int(s.nPlan) < maxPlanCrashes && (s.nPlan == 0 || r.Bool()) {
			s.plan[s.nPlan] = CrashAt{Proc: r.Intn(k), Step: r.Uint64n(searchMaxStep)}
			s.nPlan++
		} else {
			s.plan[r.Intn(int(s.nPlan))] = CrashAt{Proc: r.Intn(k), Step: r.Uint64n(searchMaxStep)}
		}
	case 2:
		if s.nPlan > 0 {
			i := int32(r.Intn(int(s.nPlan)))
			s.plan[i] = s.plan[s.nPlan-1]
			s.nPlan--
		} else {
			s.advSeed = r.Next()
		}
	case 3:
		if s.nPlan > 0 {
			c := &s.plan[r.Intn(int(s.nPlan))]
			// Shift the step by a uniform offset in [−8, +8].
			d := r.Uint64n(17)
			if c.Step+d >= 8 {
				c.Step = c.Step + d - 8
			} else {
				c.Step = 0
			}
		} else {
			s.advSeed = r.Next()
		}
	}
}
