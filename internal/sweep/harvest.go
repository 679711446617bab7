package sweep

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sortnet"
	"repro/internal/tas"
)

// Harvesting turns a sweep observation — "task T with seed S under
// adversary A and crash plan P ran for N steps" — into a durable artifact:
// the execution is re-run outside the arena through the execution layer,
// recording an exec.EventLog with operation marks, and the log is then
// replayed through sim.FromTrace to prove it reproduces the execution bit
// for bit. A harvest that re-records with the observed step count
// (SourceMatch) and replays identically (ReplayIdentical) is a frozen
// worst case: its (seed, advSeed, plan) triple can be committed as a
// regression (see regressions.go) and re-verified forever.

// harvestRef re-records ref through the execution layer and verifies the
// recorded log against the checkers and against its own replay.
func (s *Sweep) harvestRef(obj int, ref runRef, why string) Harvest {
	spec := s.space.Objects[obj]
	k := spec.K

	// A fresh advSet's arm is the arena's own family switch, so both paths
	// build the same decision stream.
	var inner sim.Adversary
	if ref.advIdx >= 0 {
		inner = newAdvSet().arm(s.space.Advs[ref.advIdx], ref.advSeed, k)
	} else {
		inner = sim.NewRandom(ref.advSeed)
	}
	rt := sim.New(ref.seed, inner, sim.WithStepCap(s.opts.StepCap))
	ex := exec.New(rt, k)
	if ref.nPlan > 0 {
		fp := exec.NewFaultPlan()
		for _, c := range ref.plan[:ref.nPlan] {
			fp.CrashAt(c.Proc, c.Step)
		}
		ex.Faults(fp)
	}
	log := ex.Record()

	names := make([]uint64, k)
	st := ex.Run(objBody(spec, rt, ex, names))

	h := Harvest{
		Object:    spec.Name,
		Why:       why,
		Ref:       s.renderRef(ref),
		Events:    log.Len(),
		Decisions: log.Decisions(),
		// The arena observed ref.steps for this execution; the re-record
		// must reproduce it exactly, or the harvest path and the engine
		// disagree about the schedule.
		SourceMatch: st.MaxSteps() == ref.steps,
	}

	var err error
	switch spec.Kind {
	case KindRenaming:
		err = exec.CheckRenamingTrace(log)
	case KindBitBatching:
		// The trace checker enforces tight [1..k] names; BitBatching only
		// promises uniqueness in [1..n], so check the collected names.
		if vk := checkNames(names, st.Crashed, spec.N, false); vk != violNone {
			err = fmt.Errorf("bitbatching: %s", vk)
		}
	case KindCounter:
		err = exec.CheckCounterTrace(log)
	}
	if err != nil {
		h.CheckErr = err.Error()
	}

	h.ReplayIdentical = replayMatches(spec, log, names, st)
	return h
}

// replayMatches replays log on a fresh simulator against a same-shaped
// object graph and compares names, per-process operation counts, and
// crashes with the recorded run.
func replayMatches(spec ObjectSpec, log *exec.EventLog, names []uint64, st *shmem.Stats) bool {
	rt := exec.Replay(log)
	names2 := make([]uint64, spec.K)
	st2 := rt.Run(spec.K, objBody(spec, rt, nil, names2))
	for i := 0; i < spec.K; i++ {
		if names2[i] != names[i] || st2.Crashed[i] != st.Crashed[i] || st2.PerProc[i] != st.PerProc[i] {
			return false
		}
	}
	return true
}

// objBody instantiates spec's object on rt and returns the execution body
// the sweep runs: each process stores its result (name or counter read)
// into names. When ex is non-nil the body emits the operation marks the
// trace checkers consume. Marks do not take simulated steps, so the same
// schedule drives marked, unmarked, and arena executions identically.
func objBody(spec ObjectSpec, rt *sim.Runtime, ex *exec.Execution, names []uint64) func(p shmem.Proc) {
	switch spec.Kind {
	case KindRenaming:
		sa := core.CompileStrongAdaptive(sortnet.BaseOEM).Instantiate(rt, tas.MakeUnit)
		return func(p shmem.Proc) {
			n := sa.Rename(p, uint64(p.ID())+1)
			names[p.ID()] = n
			if ex != nil {
				ex.MarkName(p, n)
			}
		}
	case KindBitBatching:
		bb := core.CompileBitBatching(spec.N).Instantiate(rt, tas.MakeUnit)
		return func(p shmem.Proc) {
			n := bb.Rename(p, uint64(p.ID())+1)
			names[p.ID()] = n
			if ex != nil {
				ex.MarkName(p, n)
			}
		}
	case KindCounter:
		c := core.NewMonotoneCounter(rt, tas.MakeUnit)
		return func(p shmem.Proc) {
			if ex != nil {
				ex.MarkIncStart(p)
			}
			c.Inc(p)
			if ex != nil {
				ex.MarkIncEnd(p)
				ex.MarkReadStart(p)
			}
			v := c.Read(p)
			if ex != nil {
				ex.MarkRead(p, v)
			}
			names[p.ID()] = v
			if ex != nil {
				ex.MarkIncStart(p)
			}
			c.Inc(p)
			if ex != nil {
				ex.MarkIncEnd(p)
			}
		}
	}
	panic(fmt.Sprintf("sweep: no body for %v", spec.Kind))
}
