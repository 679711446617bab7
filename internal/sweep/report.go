package sweep

import (
	"encoding/json"
	"fmt"

	"repro/internal/rng"
	"repro/internal/shmem"
)

// violKind classifies a validity violation.
type violKind uint8

const (
	violNone violKind = iota
	violOutOfRange
	violDuplicate
	violNotTight
	violCounter
)

func (v violKind) String() string {
	switch v {
	case violNone:
		return "none"
	case violOutOfRange:
		return "name-out-of-range"
	case violDuplicate:
		return "duplicate-name"
	case violNotTight:
		return "names-not-tight"
	case violCounter:
		return "counter-inconsistent"
	}
	return fmt.Sprintf("violKind(%d)", uint8(v))
}

// runRef identifies one execution of the sweep precisely enough to re-run
// it outside the engine: the runtime seed, the adversary (a family index
// with its seed, or −1 for a search-proposed Random schedule), and the
// crash plan (a plan index, or −1 with the points inline). task/iter give
// every execution a total order independent of scheduling, which the
// accumulators use as the tie-break that keeps merges order-insensitive.
type runRef struct {
	steps   uint64
	task    int32
	iter    int32
	seed    uint64
	advIdx  int32
	advSeed uint64
	planIdx int32
	plan    [maxPlanCrashes]CrashAt
	nPlan   int32
}

// before is the total order on executions: by (task, iter).
func (r runRef) before(o runRef) bool {
	if r.task != o.task {
		return r.task < o.task
	}
	return r.iter < o.iter
}

// beats is the worst-case order: more steps wins; ties go to the earliest
// execution in task order (which worker ran it must not pick the winner).
func (r runRef) beats(o runRef) bool {
	if r.steps != o.steps {
		return r.steps > o.steps
	}
	return r.before(o)
}

// objAcc accumulates one object's results within one worker. Every field
// combines commutatively and associatively across workers — sums, a max
// with a total-order tie-break, a min by total order, and a checksum that
// adds per-execution hashes — so the merged aggregate is independent of
// worker count and of which worker ran which task.
type objAcc struct {
	execs      uint64
	crashes    uint64
	capHits    uint64
	violations uint64
	totalSteps uint64
	coins      uint64
	checksum   uint64

	hasWorst bool
	worst    runRef

	hasViol  bool
	viol     runRef
	violKind violKind
}

// add folds one execution into the accumulator.
func (a *objAcc) add(ref runRef, st *shmem.Stats, names []uint64, vk violKind) {
	a.execs++
	a.totalSteps += st.TotalSteps()
	if st.StepCapHit {
		a.capHits++
	}
	h := rng.Mix64(uint64(uint32(ref.task))<<32 | uint64(uint32(ref.iter)))
	h ^= rng.Mix64(ref.seed)
	for i := range st.PerProc {
		if st.Crashed[i] {
			a.crashes++
			h = rng.Mix64(h ^ 0xc4a5)
		}
		h = rng.Mix64(h ^ names[i])
		h = rng.Mix64(h ^ st.PerProc[i].Steps())
		a.coins += st.PerProc[i].Coins
	}
	a.checksum += h
	if !a.hasWorst || ref.beats(a.worst) {
		a.hasWorst, a.worst = true, ref
	}
	if vk != violNone {
		a.violations++
		if !a.hasViol || ref.before(a.viol) {
			a.hasViol, a.viol, a.violKind = true, ref, vk
		}
	}
}

// merge folds another worker's accumulator for the same object into a.
func (a *objAcc) merge(b *objAcc) {
	a.execs += b.execs
	a.crashes += b.crashes
	a.capHits += b.capHits
	a.violations += b.violations
	a.totalSteps += b.totalSteps
	a.coins += b.coins
	a.checksum += b.checksum
	if b.hasWorst && (!a.hasWorst || b.worst.beats(a.worst)) {
		a.hasWorst, a.worst = true, b.worst
	}
	if b.hasViol && (!a.hasViol || b.viol.before(a.viol)) {
		a.hasViol, a.viol, a.violKind = true, b.viol, b.violKind
	}
}

// RunRef is the reportable form of an execution reference.
type RunRef struct {
	Task  int    `json:"task"`
	Iter  int    `json:"iter,omitempty"`
	Seed  uint64 `json:"seed"`
	Adv   string `json:"adv"`
	Plan  string `json:"plan"`
	Steps uint64 `json:"steps"`
}

// ObjectReport is one object's aggregate over the sweep.
type ObjectReport struct {
	Object     string  `json:"object"`
	K          int     `json:"k"`
	Executions uint64  `json:"executions"`
	Crashes    uint64  `json:"crashes"`
	CapHits    uint64  `json:"cap_hits,omitempty"`
	Violations uint64  `json:"violations"`
	TotalSteps uint64  `json:"total_steps"`
	MeanSteps  float64 `json:"mean_steps"`
	Coins      uint64  `json:"coins"`
	Checksum   string  `json:"checksum"`
	Worst      RunRef  `json:"worst"`
	// FirstViolation is the earliest violating execution in task order.
	FirstViolation *RunRef `json:"first_violation,omitempty"`
	ViolationKind  string  `json:"violation_kind,omitempty"`
}

// Harvest is the result of re-recording one execution through the
// execution layer: the recorded log's size, the validity-checker verdict,
// and whether the re-record matched the sweep observation and the replay
// reproduced the record bit for bit.
type Harvest struct {
	Object string `json:"object"`
	Why    string `json:"why"` // "worst" or "violation"
	Ref    RunRef `json:"ref"`
	Events int    `json:"events"`
	// Decisions is the recorded schedule length (steps + crashes).
	Decisions int `json:"decisions"`
	// CheckErr is the trace checker's complaint ("" = valid).
	CheckErr string `json:"check_err,omitempty"`
	// SourceMatch reports that the re-recorded execution reproduced the
	// sweep's observed worst-case step count.
	SourceMatch bool `json:"source_match"`
	// ReplayIdentical reports that replaying the log through sim.FromTrace
	// reproduced names, per-process op counts, and crashes bit for bit.
	ReplayIdentical bool `json:"replay_identical"`
}

// Report is the aggregate outcome of a sweep. All fields except
// ElapsedSec/ExecPerSec are deterministic for a fixed Space and Options
// (any Workers value included); Stable returns the deterministic view.
type Report struct {
	Schema     string         `json:"schema"`
	Mode       string         `json:"mode"`
	Workers    int            `json:"workers"`
	Tasks      int            `json:"tasks"`
	Executions uint64         `json:"executions"`
	Violations uint64         `json:"violations"`
	Verdict    string         `json:"verdict"`
	Objects    []ObjectReport `json:"objects"`
	Harvests   []Harvest      `json:"harvests,omitempty"`
	ElapsedSec float64        `json:"elapsed_sec,omitempty"`
	ExecPerSec float64        `json:"exec_per_sec,omitempty"`
}

// Stable returns a copy with the wall-clock fields and the worker count
// zeroed — the part of the report that must be bit-identical across
// worker counts, task interleavings, and repeated runs.
func (r *Report) Stable() *Report {
	c := *r
	c.Workers = 0
	c.ElapsedSec = 0
	c.ExecPerSec = 0
	return &c
}

// JSON renders the report (indented, deterministic field order).
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // no unmarshalable fields by construction
	}
	return b
}

// OK reports a clean sweep: no violations and every harvest re-recorded
// and replayed exactly.
func (r *Report) OK() bool { return r.Verdict == "ok" }
