package load

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/phase"
	"repro/internal/serve"
	"repro/internal/shmem"
	"repro/internal/sortnet"
	"repro/internal/tas"
	"repro/internal/wire"
)

// Target is the served system: the pools and the shared phased counter
// behind every served operation, and Do, the one definition of what each
// wire op code does to them. The wire server runs every op of every frame
// through Do, and the harness drives a Target in process through Op, the
// Remote method the wire and cluster clients implement too, so an op means
// the same thing however it reaches the pools. NewTarget builds the production
// configuration (hardware TAS, native runtimes).
type Target struct {
	// Rename serves solo renames, one checked-out instance per op.
	Rename *serve.Pool[*core.StrongAdaptive]
	// Wave pools the renamers that k-process waves run on, served and
	// crash-storm waves alike. Waves get their own instances so that a
	// wave's graph never stays with an instance a solo rename checks out:
	// Put resets every object a graph built, so a rename instance that
	// once ran a wide wave would pay that wave's reset on every later
	// rename.
	Wave *serve.Pool[*core.StrongAdaptive]
	// Phased serves the shared contention-adaptive phased counter, the one
	// counter on the wire (the phased ops, which every scenario sends for
	// Inc/Read; the pool's auto controller drives the split/joined mode
	// off live contention).
	Phased *phase.Pool
	// PhasedWave pools per-instance phased counters for Phased scenarios'
	// in-process waves: each wave checks one out and runs a k-process
	// execution against it with the scenario's FaultPlan armed, so crashes
	// land inside merge windows on a private instance (the shared Phased
	// counter's lanes stay single-writer).
	PhasedWave *serve.Pool[*phase.Counter]
}

const (
	// Phased wave-instance shape: enough process slots for the widest
	// catalog churn, and an epoch small enough that every wave crosses
	// merge windows (where the crash plans are aimed).
	phasedWaveLanes = 32
	phasedWaveEpoch = 4
	// maxWaveK bounds the width of a wave served through Do: wire input is
	// untrusted, and a wave spawns k goroutines.
	maxWaveK = 32
)

// newRenamer returns the default renamer recipe: the strong adaptive
// renamer with hardware test-and-set (the compiled blueprint behind it is
// cached process-wide).
func newRenamer() func(mem shmem.Mem) *core.StrongAdaptive {
	saBP := core.CompileStrongAdaptive(sortnet.BaseOEM)
	return func(mem shmem.Mem) *core.StrongAdaptive {
		return saBP.Instantiate(mem, tas.MakeUnit)
	}
}

// NewTarget builds the default target: pools of strong adaptive renamers
// with hardware test-and-set for renames and for waves, the shared phased
// counter and the phased wave instances, seeded from seed.
func NewTarget(seed uint64) *Target {
	newPhased := func(mem shmem.Mem) *phase.Counter {
		return phase.NewAAC(mem, phasedWaveLanes, phasedWaveEpoch)
	}
	return &Target{
		Rename:     serve.New(serve.Options{Seed: seed}, newRenamer()),
		Wave:       serve.New(serve.Options{Seed: seed + 1}, newRenamer()),
		Phased:     phase.NewPool(phase.Options{Seed: seed + 2}),
		PhasedWave: serve.New(serve.Options{Seed: seed + 3}, newPhased),
	}
}

// Do executes a run of n served operations of one code and returns the
// value each op of it replies; ok is false for an op code the protocol
// does not define, the retired codes 2 and 3 included. n is the run
// length wire.Frame.Run reports: above 1 only for OpPhasedInc, whose run
// is one add of n to the shared phased counter (one lease, one spine walk
// or cell add). Every other code runs one op and ignores n. Rename checks
// an instance out of the shard arg selects, so one key's renames contend
// on one shard, and gets a fresh instance each (Put resets). A wave runs
// arg processes, clamped to [1, maxWaveK], fault-free on one renamer
// checked out of the wave pool, and returns the width run. The phased ops
// ignore arg and hit the shared phased counter. Rename and the phased
// reads allocate nothing.
func (tg *Target) Do(code wire.OpCode, arg uint64, n int) (uint64, bool) {
	switch code {
	case wire.OpRename:
		return tg.rename(arg), true
	case wire.OpWave:
		k := int(min(max(arg, 1), maxWaveK))
		tg.runWave(k, nil)
		return uint64(k), true
	case wire.OpPhasedInc:
		tg.Phased.Add(uint64(n))
		return 0, true
	case wire.OpPhasedRead:
		return tg.Phased.Read(), true
	case wire.OpPhasedReadStrict:
		return tg.Phased.ReadStrict(), true
	}
	return 0, false
}

// Route returns the pool shard Do(code, arg, n) checks out of and, for the
// phased ops, the phased counter's live mode (0 for the other ops): the
// span attribution of a served op, from the same op-code-to-pool mapping
// as Do.
func (tg *Target) Route(code wire.OpCode, arg uint64) (shard int, mode phase.Mode) {
	switch code {
	case wire.OpRename:
		return tg.Rename.ShardFor(arg), 0
	case wire.OpPhasedInc, wire.OpPhasedRead, wire.OpPhasedReadStrict:
		return 0, tg.Phased.Counter().Mode()
	}
	return 0, 0
}

// Op implements Remote in process: Do of one op, with the routing key
// unused (one Target owns every key). An undefined op code is an error.
func (tg *Target) Op(code wire.OpCode, _, arg uint64) (uint64, error) {
	v, ok := tg.Do(code, arg, 1)
	if !ok {
		return 0, fmt.Errorf("load: undefined op code %d", code)
	}
	return v, nil
}

// The checkout helpers: one pool checkout each, so each deferred Put is
// open-coded, and a panic mid-operation still recycles the instance (a
// dying connection can never leak one).

func (tg *Target) rename(key uint64) uint64 {
	in := tg.Rename.GetKeyed(key)
	defer in.Put()
	return in.Obj.Rename(in.Proc(), 1)
}

// runWave checks one renamer out of the wave pool and runs a k-process
// execution wave against it through the execution layer, with plan (if
// any) armed — the crash-storm path. Returns the number of plan crashes
// that fired.
func (tg *Target) runWave(k int, plan *exec.FaultPlan) uint64 {
	in := tg.Wave.Get()
	defer in.Put() // also disarms the plan before the instance recycles
	ex := in.Exec(k)
	if plan != nil {
		ex.Faults(plan)
	}
	sa := in.Obj
	return countCrashes(ex.Run(func(p shmem.Proc) { sa.Rename(p, uint64(p.ID())+1) }))
}

// runPhasedWave checks a phased counter out and runs a k-process
// execution wave of phasedWave against it (k at most phasedWaveLanes),
// with plan (if any) armed. Returns the number of plan crashes that fired.
func (tg *Target) runPhasedWave(k int, plan *exec.FaultPlan) uint64 {
	in := tg.PhasedWave.Get()
	defer in.Put()
	ex := in.Exec(min(k, phasedWaveLanes))
	if plan != nil {
		ex.Faults(plan)
	}
	c := in.Obj
	return countCrashes(ex.Run(func(p shmem.Proc) { phasedWave(c, p) }))
}

// phasedWave is one process's part of a phased wave: it increments across
// a Joined→Split→Joined double transition (process 0 flips the mode
// mid-flight) and reads, so injected crashes land between a cell add and
// its spine merge, the reconciliation window the phased design must
// survive. The native and simulator runners share it.
func phasedWave(c *phase.Counter, p shmem.Proc) {
	if p.ID() == 0 {
		c.SetMode(phase.Split)
	}
	for i := 0; i < 4; i++ {
		c.Inc(p)
	}
	c.Read(p)
	if p.ID() == 0 {
		c.SetMode(phase.Joined)
	}
	c.Inc(p)
}

// countCrashes counts the crashed processes of an execution.
func countCrashes(st *shmem.Stats) uint64 {
	var n uint64
	for _, c := range st.Crashed {
		if c {
			n++
		}
	}
	return n
}
