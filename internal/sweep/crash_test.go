package sweep

import (
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/shmem"
	"repro/internal/sim"
)

// TestArenaCrashesMatchFaultPlan pins the agreement the harvest's
// SourceMatch relies on: a crash plan armed raw on the arena's
// sim.CrashPlan and the same points armed through exec.FaultPlan give
// identical Stats — per-process operation counts and the crashed set —
// under every adversary family. The points sit inside bursts (rr-burst8
// grants 8 steps per turn, oscillator32 grants 32, sequential runs each
// process to completion), and one plan names a process twice: the later
// entry wins on both paths.
func TestArenaCrashesMatchFaultPlan(t *testing.T) {
	obj, _ := ObjectByName("rename8")
	k := obj.K
	plans := [][]CrashAt{
		{{Proc: 0, Step: 3}, {Proc: 5, Step: 11}},
		{{Proc: 2, Step: 9}, {Proc: 6, Step: 13}},
		{{Proc: 3, Step: 40}, {Proc: 1, Step: 2}, {Proc: 3, Step: 7}},
	}
	a := newArena([]ObjectSpec{obj}, 1<<22)
	defer a.close()
	sl := a.slot([]ObjectSpec{obj}, 0)

	for _, spec := range DefaultAdvs() {
		for _, plan := range plans {
			for seed := uint64(1); seed <= 3; seed++ {
				raw := sl.run(seed, a.crashes(a.advs.arm(spec, seed, k), plan, k))
				// The arena's runtime owns its Stats until the next run.
				wantOps := append([]shmem.OpCounts(nil), raw.PerProc...)
				wantCrashed := append([]bool(nil), raw.Crashed...)

				rt := sim.New(seed, newAdvSet().arm(spec, seed, k))
				ex := exec.New(rt, k)
				fp := exec.NewFaultPlan()
				for _, c := range plan {
					fp.CrashAt(c.Proc, c.Step)
				}
				ex.Faults(fp)
				got := ex.Run(objBody(obj, rt, nil, make([]uint64, k)))

				if !reflect.DeepEqual(got.PerProc, wantOps) || !reflect.DeepEqual(got.Crashed, wantCrashed) {
					t.Fatalf("%s plan %v seed %d: paths diverged\nCrashPlan: %v %+v\nFaultPlan: %v %+v",
						spec.Name, plan, seed, wantCrashed, wantOps, got.Crashed, got.PerProc)
				}
				// The later entry for a process is its plan; a process that
				// crashed stopped exactly there, mid-burst.
				at := make(map[int]uint64)
				for _, c := range plan {
					at[c.Proc] = c.Step
				}
				fired := 0
				for p, step := range at {
					if !got.Crashed[p] {
						continue
					}
					fired++
					if n := got.PerProc[p].Steps(); n != step {
						t.Fatalf("%s plan %v seed %d: process %d crashed after %d steps, planned %d",
							spec.Name, plan, seed, p, n, step)
					}
				}
				if fired == 0 {
					t.Fatalf("%s plan %v seed %d: no planned crash fired", spec.Name, plan, seed)
				}
			}
		}
	}
}
