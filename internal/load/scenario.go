package load

import (
	"math"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/rng"
)

// Mix is the operation mix of a Scenario, as integer weights. Each worker
// draws the next operation kind from its private rng stream with these
// weights, so the mix is deterministic per (seed, worker).
type Mix struct {
	// Rename checks a strong adaptive renamer out of the pool shard its key
	// selects and runs one solo Rename on the instance's dedicated proc
	// (Target.Do's rename).
	Rename int `json:"rename,omitempty"`
	// Inc runs one increment of the shared phased counter (the
	// OpPhasedInc op).
	Inc int `json:"inc,omitempty"`
	// Read runs one fast monotone-consistent read of the shared phased
	// counter (the OpPhasedRead op).
	Read int `json:"read,omitempty"`
	// Wave runs one k-process execution wave: k goroutines rename
	// concurrently against one checked-out instance through the execution
	// layer, with the scenario's FaultPlan (if any) armed. k is WaveK, or
	// time-varying under Churn. Phased scenarios' waves run on a phased
	// counter instead, in process only (the wire has no phased-wave op).
	Wave int `json:"wave,omitempty"`
	// Targets is the keyed-target universe for renames when Skew is set:
	// each rename draws a target id in [0, Targets) and routes through the
	// pool's keyed checkout, so hot targets collide on the same shard
	// instead of spreading uniformly. Inc and Read draw nothing: the phased
	// counter has one instance. 0 defaults to 64 when Skew > 0 (ignored
	// otherwise).
	Targets int `json:"targets,omitempty"`
	// Skew is the Zipf exponent of the target draw: P(target=i) ∝
	// 1/(i+1)^Skew. 0 (the default) disables target selection entirely —
	// no extra rng draws, so pre-skew scenarios' op streams are unchanged.
	// 0.99 is the classic YCSB zipfian; higher concentrates harder.
	Skew float64 `json:"skew,omitempty"`
}

func (m Mix) total() int { return m.Rename + m.Inc + m.Read + m.Wave }

// opKind indexes the operation kinds of a Mix.
type opKind int

const (
	opRename opKind = iota
	opInc
	opRead
	opWave
	numOpKinds
)

var opNames = [numOpKinds]string{"rename", "inc", "read", "wave"}

// pick draws an operation kind by the mix weights from r.
func (m Mix) pick(r *rng.SplitMix64) opKind {
	n := uint64(m.total())
	if n == 0 {
		return opRename
	}
	v := r.Uint64n(n)
	switch {
	case v < uint64(m.Rename):
		return opRename
	case v < uint64(m.Rename+m.Inc):
		return opInc
	case v < uint64(m.Rename+m.Inc+m.Read):
		return opRead
	default:
		return opWave
	}
}

// Churn makes the wave width k(t) — the live contention the renaming
// algorithms see — follow a triangle wave between MinK and MaxK with the
// given period: processes effectively join until the wave crests at MaxK,
// then leave until it bottoms out at MinK. This is the adaptive case the
// paper is about: step complexity should track k(t), not the worst case.
type Churn struct {
	MinK   int           `json:"min_k"`
	MaxK   int           `json:"max_k"`
	Period time.Duration `json:"period"`
}

// kAt returns the wave width at offset t of a scenario lasting total (both
// in seconds). Deterministic in t, so the simulator runner (which maps op
// index to virtual time) replays the same widths per seed.
func (c *Churn) kAt(t float64) int {
	p := c.Period.Seconds()
	if p <= 0 {
		p = 1
	}
	pos := math.Mod(t, p) / p
	tri := 2 * pos
	if pos >= 0.5 {
		tri = 2 - 2*pos
	}
	k := c.MinK + int(math.Round(tri*float64(c.MaxK-c.MinK)))
	if k < 1 {
		k = 1
	}
	return k
}

// Scenario is one declarative workload: an arrival process, an operation
// mix, a duration and op budget, and an optional fault plan. The zero
// values of most fields have sensible defaults (withDefaults); Catalog()
// holds the curated named set.
type Scenario struct {
	Name string `json:"name"`
	// Note is a one-line description for -list and the catalog table.
	Note string `json:"note,omitempty"`
	// Workers is the number of generator goroutines (default 4). Open-loop
	// kinds split the offered rate evenly across workers; closed-loop kinds
	// run one request chain per worker.
	Workers int `json:"workers,omitempty"`
	// Arrival is the arrival process.
	Arrival Arrival `json:"arrival"`
	// Mix is the operation mix (default: all Rename).
	Mix Mix `json:"mix"`
	// WaveK is the process count of Wave operations (default 8) when the
	// scenario has no Churn.
	WaveK int `json:"wave_k,omitempty"`
	// Churn, when set, varies the wave width over time between MinK and
	// MaxK — the time-varying-contention regime.
	Churn *Churn `json:"churn,omitempty"`
	// Duration bounds the run in wall time (default 5s; the simulator
	// runner uses it only to map op index onto the rate profile).
	Duration time.Duration `json:"duration,omitempty"`
	// Ops bounds the run in operations (0 = duration-bound only). On the
	// simulator it is the exact budget (0 = 240). On the native runtime
	// the budget is split evenly across workers (ceil) so the op path
	// shares no counter; a run can therefore complete up to Workers−1
	// operations more than Ops.
	Ops uint64 `json:"ops,omitempty"`
	// Phased chooses the wave kind: Wave runs k-process phased-counter
	// executions (mode transitions mid-wave, the scenario's FaultPlan armed
	// — crashes land inside merge windows) instead of rename waves. Inc and
	// Read hit the shared phased counter whatever Phased says.
	Phased bool `json:"phased,omitempty"`
	// Faults is armed on every Wave execution (crash storms mid-load). The
	// plan is re-armed fresh per wave, so one plan drives the whole run;
	// plan entries for processes ≥ the current wave width simply never
	// fire. Nil runs fault-free.
	Faults *exec.FaultPlan `json:"-"`
	// Seed derives every worker's operation and gap streams and the pooled
	// instances' coin streams.
	Seed uint64 `json:"seed"`
}

// withDefaults resolves the zero values.
func (s Scenario) withDefaults() Scenario {
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	if s.Mix.total() == 0 {
		s.Mix = Mix{Rename: 1}
	}
	if s.WaveK <= 0 {
		s.WaveK = 8
	}
	if s.Mix.Skew > 0 && s.Mix.Targets <= 0 {
		s.Mix.Targets = 64
	}
	return s
}

// kAt returns the wave width at offset t seconds into the scenario.
func (s *Scenario) kAt(t float64) int {
	if s.Churn != nil {
		return s.Churn.kAt(t)
	}
	return s.WaveK
}

// stormPlan is the catalog's crash-storm fault plan: procs 0, 2, 4, 6 of
// every wave die at staggered points of their own step sequence.
func stormPlan() *exec.FaultPlan {
	return exec.NewFaultPlan().
		CrashAt(0, 5).CrashAt(2, 15).CrashAt(4, 25).CrashAt(6, 35)
}

// Catalog returns the curated scenario set. Every entry runs as-is under
// cmd/renameload (-scenario <name>) and shrinks cleanly when -duration,
// -rate, or -ops override the defaults.
func Catalog() []Scenario {
	return []Scenario{
		{
			Name:    "steady",
			Note:    "open-loop renames at a flat rate — the baseline row",
			Arrival: Arrival{Kind: Steady, Rate: 20000},
			Mix:     Mix{Rename: 1},
			Seed:    1,
		},
		{
			Name:    "poisson",
			Note:    "memoryless arrivals over a rename/counter mix",
			Arrival: Arrival{Kind: Poisson, Rate: 15000},
			Mix:     Mix{Rename: 6, Inc: 3, Read: 1},
			Seed:    2,
		},
		{
			Name:    "burst",
			Note:    "square-wave load: 5k ops/s low, 40k ops/s high",
			Arrival: Arrival{Kind: Burst, Rate: 5000, Peak: 40000, Period: 500 * time.Millisecond},
			Mix:     Mix{Rename: 1},
			Seed:    3,
		},
		{
			Name:    "ramp",
			Note:    "linear ramp 2k→30k ops/s over the run, mixed ops",
			Arrival: Arrival{Kind: Ramp, Rate: 2000, Peak: 30000},
			Mix:     Mix{Rename: 3, Inc: 1},
			Seed:    4,
		},
		{
			Name:    "churn",
			Note:    "execution waves whose width k(t) churns 2..12 with a crash plan armed — the adaptive case",
			Arrival: Arrival{Kind: Steady, Rate: 40},
			Mix:     Mix{Wave: 1},
			Churn:   &Churn{MinK: 2, MaxK: 12, Period: 600 * time.Millisecond},
			Faults:  exec.NewFaultPlan().CrashAt(1, 8).CrashAt(3, 20).CrashAt(5, 12),
			Seed:    5,
		},
		{
			Name:    "crashstorm",
			Note:    "bursty waves (10/s low, 60/s high) with a four-process crash storm per wave",
			Arrival: Arrival{Kind: Burst, Rate: 10, Peak: 60, Period: 400 * time.Millisecond},
			Mix:     Mix{Wave: 1},
			WaveK:   8,
			Faults:  stormPlan(),
			Seed:    6,
		},
		{
			Name:    "waves",
			Note:    "steady k=8 execution waves, fault-free — contention without churn",
			Arrival: Arrival{Kind: Steady, Rate: 30},
			Mix:     Mix{Wave: 1},
			WaveK:   8,
			Seed:    7,
		},
		{
			Name:    "phased",
			Note:    "bursty counter traffic on the contention-adaptive phased counter — auto split/rejoin",
			Arrival: Arrival{Kind: Burst, Rate: 5000, Peak: 40000, Period: 500 * time.Millisecond},
			Mix:     Mix{Inc: 8, Read: 2},
			Phased:  true,
			Seed:    10,
		},
		{
			Name:    "phased-churn",
			Note:    "phased-counter waves churning k 2..12 with crashes landing mid-reconciliation",
			Arrival: Arrival{Kind: Steady, Rate: 40},
			Mix:     Mix{Inc: 5, Read: 2, Wave: 3},
			Churn:   &Churn{MinK: 2, MaxK: 12, Period: 600 * time.Millisecond},
			Faults:  exec.NewFaultPlan().CrashAt(1, 6).CrashAt(3, 14).CrashAt(5, 9),
			Phased:  true,
			Seed:    11,
		},
		{
			Name:    "skew",
			Note:    "poisson mixed ops with zipf-skewed targets — hot shards under memoryless load",
			Arrival: Arrival{Kind: Poisson, Rate: 15000},
			Mix:     Mix{Rename: 6, Inc: 3, Read: 1, Targets: 64, Skew: 0.99},
			Seed:    12,
		},
		{
			Name:    "readheavy",
			Note:    "closed-loop counter traffic, 1 inc : 9 reads",
			Workers: 8,
			Arrival: Arrival{Kind: Closed},
			Mix:     Mix{Inc: 1, Read: 9},
			Seed:    8,
		},
		{
			Name:    "closed",
			Note:    "closed-loop renames with think time — the self-limiting baseline",
			Arrival: Arrival{Kind: Closed, Think: 200 * time.Microsecond},
			Mix:     Mix{Rename: 1},
			Seed:    9,
		},
	}
}

// Find returns the catalog scenario with the given name (case-insensitive).
func Find(name string) (Scenario, bool) {
	for _, s := range Catalog() {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return Scenario{}, false
}
