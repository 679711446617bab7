package sweep

import (
	"fmt"
	"strings"
)

// maxProcs bounds the process count of sweep objects. It keeps the name
// uniqueness check a single uint64 bitmask and the per-slot result array
// fixed-size.
const maxProcs = 64

// maxPlanCrashes bounds the crash points of one plan (grid plans and
// search-proposed plans alike), so a plan fits in a fixed array.
const maxPlanCrashes = 4

// ObjectKind selects the algorithm an ObjectSpec sweeps.
type ObjectKind uint8

const (
	// KindRenaming is the strong adaptive renaming algorithm (Section 6):
	// names must be unique in [1..k], and exactly {1..k} in crash-free
	// executions.
	KindRenaming ObjectKind = iota
	// KindBitBatching is the non-adaptive Section 4 algorithm on an N-slot
	// vector: names must be unique in [1..N].
	KindBitBatching
	// KindCounter is the monotone-consistent counter (Section 8): each
	// process runs Inc, Read, Inc; the read must see at least the
	// process's own completed increment and at most all started ones.
	KindCounter
)

func (k ObjectKind) String() string {
	switch k {
	case KindRenaming:
		return "renaming"
	case KindBitBatching:
		return "bitbatching"
	case KindCounter:
		return "counter"
	}
	return fmt.Sprintf("ObjectKind(%d)", uint8(k))
}

// ObjectSpec is one swept object configuration.
type ObjectSpec struct {
	Name string     `json:"name"`
	Kind ObjectKind `json:"kind"`
	// K is the process count (1..maxProcs).
	K int `json:"k"`
	// N is the BitBatching namespace size (K..maxProcs); ignored by the
	// other kinds.
	N int `json:"n,omitempty"`
}

// Objects returns the curated object catalog. Every entry is valid for
// NewSpace and addressable by name from cmd/renamesweep -objects.
func Objects() []ObjectSpec {
	return []ObjectSpec{
		{Name: "rename4", Kind: KindRenaming, K: 4},
		{Name: "rename8", Kind: KindRenaming, K: 8},
		{Name: "rename16", Kind: KindRenaming, K: 16},
		{Name: "bitbatch64", Kind: KindBitBatching, K: 8, N: 64},
		{Name: "counter8", Kind: KindCounter, K: 8},
	}
}

// ObjectByName resolves a catalog object (case-insensitive).
func ObjectByName(name string) (ObjectSpec, bool) {
	for _, o := range Objects() {
		if strings.EqualFold(o.Name, name) {
			return o, true
		}
	}
	return ObjectSpec{}, false
}

func (o ObjectSpec) validate() error {
	if o.K < 1 || o.K > maxProcs {
		return fmt.Errorf("sweep: object %q: k=%d out of [1,%d]", o.Name, o.K, maxProcs)
	}
	if o.Kind == KindBitBatching && (o.N < o.K || o.N > maxProcs) {
		return fmt.Errorf("sweep: object %q: n=%d out of [k,%d]", o.Name, o.N, maxProcs)
	}
	return nil
}

// AdvKind selects an adversary family.
type AdvKind uint8

const (
	AdvRandom AdvKind = iota
	AdvRoundRobin
	AdvOscillator
	AdvAntiCoin
	AdvLaggard
	AdvSequential
)

// AdvSpec is one adversary family entry of a Space. Stateful families are
// rearmed in place per execution (never reallocated); seeded families
// derive their decision stream from the task's seed.
type AdvSpec struct {
	Name string  `json:"name"`
	Kind AdvKind `json:"kind"`
	// Burst is the burst length of AdvRoundRobin / AdvOscillator.
	Burst int `json:"burst,omitempty"`
	// Victim is the starved process of AdvLaggard (clamped to k−1).
	Victim int `json:"victim,omitempty"`
}

// DefaultAdvs returns the standard adversary-family set: the fair and the
// bursty schedules, the seeded uniform and coin-hostile ones, and the
// starvation schedule.
func DefaultAdvs() []AdvSpec {
	return []AdvSpec{
		{Name: "random", Kind: AdvRandom},
		{Name: "rr-burst8", Kind: AdvRoundRobin, Burst: 8},
		{Name: "oscillator32", Kind: AdvOscillator, Burst: 32},
		{Name: "anticoin", Kind: AdvAntiCoin},
		{Name: "laggard1", Kind: AdvLaggard, Victim: 1},
		{Name: "sequential", Kind: AdvSequential},
	}
}

// BurstAdvs returns the burst-schedule subset (no per-step scheduler
// entries). The executions/sec benchmarks sweep over these: with bursts
// the coroutine-switch cost is amortized and run-state construction is
// the dominant per-execution cost — exactly what arenas amortize away.
func BurstAdvs() []AdvSpec {
	return []AdvSpec{
		{Name: "rr-burst8", Kind: AdvRoundRobin, Burst: 8},
		{Name: "oscillator32", Kind: AdvOscillator, Burst: 32},
		{Name: "sequential", Kind: AdvSequential},
	}
}

// CrashAt schedules one crash: process Proc dies when about to take its
// next step after completing Step steps. The arena arms it on a
// sim.CrashPlan and the harvest through exec.FaultPlan.CrashAt, which arms
// the same sim.CrashPlan, so a harvested plan re-records identically.
type CrashAt struct {
	Proc int    `json:"proc"`
	Step uint64 `json:"step"`
}

// PlanSpec is one crash plan of a Space. An empty At is the fault-free
// plan.
type PlanSpec struct {
	Name string    `json:"name"`
	At   []CrashAt `json:"at,omitempty"`
}

// DefaultPlans returns the standard crash-plan set: fault-free, early
// crashes (slots freed while the namespace is mostly empty), and late
// crashes (processes die deep into their probe sequences).
func DefaultPlans() []PlanSpec {
	return []PlanSpec{
		{Name: "none"},
		{Name: "early2", At: []CrashAt{{Proc: 0, Step: 3}, {Proc: 2, Step: 9}}},
		{Name: "late2", At: []CrashAt{{Proc: 1, Step: 40}, {Proc: 3, Step: 60}}},
	}
}

func (p PlanSpec) validate() error {
	if len(p.At) > maxPlanCrashes {
		return fmt.Errorf("sweep: plan %q: %d crash points exceed the maximum %d", p.Name, len(p.At), maxPlanCrashes)
	}
	for _, c := range p.At {
		if c.Proc < 0 || c.Proc >= maxProcs {
			return fmt.Errorf("sweep: plan %q: crash proc %d out of range", p.Name, c.Proc)
		}
	}
	return nil
}

// String renders the plan's crash points ("none" when empty).
func (p PlanSpec) String() string {
	if len(p.At) == 0 {
		return "none"
	}
	var b strings.Builder
	for i, c := range p.At {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "p%d@%d", c.Proc, c.Step)
	}
	return b.String()
}

// Space is the task space of a grid sweep: the cross product
// objects × adversary families × crash plans × seeds. Each task is
// identified by one index; Decode recovers the tuple. Objects vary
// outermost so consecutive task indices hit the same arena slot (the
// instantiated object stays hot while workers take indices in order), and
// seeds vary innermost.
type Space struct {
	Objects []ObjectSpec
	Advs    []AdvSpec
	Plans   []PlanSpec
	Seeds   []uint64
}

// NewSpace assembles a validated space from the given objects and seed
// count (seeds 1..seeds) over the default adversary families and crash
// plans.
func NewSpace(objects []ObjectSpec, seeds int) (*Space, error) {
	s := &Space{
		Objects: objects,
		Advs:    DefaultAdvs(),
		Plans:   DefaultPlans(),
		Seeds:   SeedRange(1, seeds),
	}
	return s, s.Validate()
}

// SeedRange returns the seed values first..first+n−1.
func SeedRange(first uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = first + uint64(i)
	}
	return seeds
}

// Validate checks every dimension of the space.
func (s *Space) Validate() error {
	if len(s.Objects) == 0 || len(s.Advs) == 0 || len(s.Plans) == 0 || len(s.Seeds) == 0 {
		return fmt.Errorf("sweep: space has an empty dimension (objects=%d advs=%d plans=%d seeds=%d)",
			len(s.Objects), len(s.Advs), len(s.Plans), len(s.Seeds))
	}
	for _, o := range s.Objects {
		if err := o.validate(); err != nil {
			return err
		}
	}
	for _, p := range s.Plans {
		if err := p.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Tasks returns the grid size.
func (s *Space) Tasks() int {
	return len(s.Objects) * len(s.Advs) * len(s.Plans) * len(s.Seeds)
}

// Decode maps a task index to its (object, adversary, plan, seed) indices.
func (s *Space) Decode(task int) (obj, adv, plan, seed int) {
	n := len(s.Seeds)
	seed = task % n
	task /= n
	n = len(s.Plans)
	plan = task % n
	task /= n
	n = len(s.Advs)
	adv = task % n
	obj = task / n
	return
}
