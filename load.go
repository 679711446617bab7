package renaming

import (
	"repro/internal/load"
)

// This file is the facade over internal/load, the workload harness:
// declarative load scenarios (open- and closed-loop arrival processes, op
// mixes, churn, crash storms) generated against the serving pools and
// measured with allocation-free log-bucketed latency histograms. See
// doc.go ("Load generation") for the model and BENCHMARKS.md ("The
// workload harness") for methodology and measurements; cmd/renameload is
// the CLI front end.

type (
	// Scenario is one declarative workload: an arrival process, an op mix,
	// a duration/op budget, optional churn (time-varying wave width — the
	// adaptive-contention regime) and an optional FaultPlan armed on every
	// execution wave.
	Scenario = load.Scenario
	// LoadReport is a scenario run's result: per-phase latency quantiles,
	// achieved-vs-offered rates, live-contention samples, and a verdict;
	// serializable to JSON.
	LoadReport = load.Report
	// LoadTarget is the served system a scenario runs against: the rename
	// pool, the shared phased counter and the phased wave pool, and Do, the
	// one definition of every served operation (the wire server runs each
	// op through it too).
	LoadTarget = load.Target
)

// LoadCatalog returns the curated scenario set: steady, poisson, burst,
// ramp, churn (time-varying k with a crash plan armed), crashstorm, waves,
// readheavy, and closed. Every entry runs as-is under cmd/renameload.
func LoadCatalog() []Scenario { return load.Catalog() }

// FindScenario returns the catalog scenario with the given name
// (case-insensitive).
func FindScenario(name string) (Scenario, bool) { return load.Find(name) }

// NewLoadTarget builds the default served system: a sharded pool of strong
// adaptive renamers with hardware test-and-set, the shared phased counter
// and the phased wave pool, seeded from seed.
func NewLoadTarget(seed uint64) *LoadTarget { return load.NewTarget(seed) }

// RunScenario executes a scenario on the native runtime against tg (nil
// builds a fresh NewLoadTarget(s.Seed)): open-loop kinds issue operations
// at scheduled arrival times and measure latency from the schedule, so
// server stalls queue arrivals behind them and surface in the tail
// (coordinated omission cannot hide them); closed-loop kinds measure pure
// service time. The report carries per-phase p50/p90/p99/p999/max,
// achieved-vs-offered rates, and sampled live contention.
func RunScenario(s Scenario, tg *LoadTarget) *LoadReport { return load.Run(s, tg) }

// RunScenarioSim executes a scenario on the deterministic simulator:
// latency becomes step complexity, and every report field except the
// elapsed wall time is a pure function of (seed, scenario) — the same
// scenario replays bit-identically per seed.
func RunScenarioSim(s Scenario, seed uint64) *LoadReport { return load.RunSim(s, seed) }

// SimReplayMatches runs s twice on the simulator with the same seed and
// reports whether the runs are bit-identical modulo the elapsed-wall-time
// field — the determinism gate behind renameload -runtime sim. The second
// report is returned, its verdict annotated on mismatch.
func SimReplayMatches(s Scenario, seed uint64) (*LoadReport, bool) {
	return load.SimReplayMatches(s, seed)
}
