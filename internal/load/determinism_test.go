package load

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/golden"
)

// simScenario shrinks a catalog scenario to a fast simulator budget.
func simScenario(t *testing.T, name string, ops uint64) Scenario {
	t.Helper()
	s, ok := Find(name)
	if !ok {
		t.Fatalf("catalog scenario %q missing", name)
	}
	s.Ops = ops
	return s
}

// TestSimChurnDeterministic is the determinism satellite: a churn scenario
// on the simulator runtime — time-varying wave width with a crash plan
// armed — produces bit-identical op counts, names, crash sets, and
// step-count quantiles per (seed, scenario) across two runs, and the JSON
// report is byte-stable modulo the wall-clock field.
func TestSimChurnDeterministic(t *testing.T) {
	s := simScenario(t, "churn", 120)
	r1 := RunSim(s, 7)
	r2 := RunSim(s, 7)

	if r1.Ops != r2.Ops || r1.Waves != r2.Waves || r1.Crashes != r2.Crashes {
		t.Fatalf("op counts diverged: (%d,%d,%d) vs (%d,%d,%d)",
			r1.Ops, r1.Waves, r1.Crashes, r2.Ops, r2.Waves, r2.Crashes)
	}
	if r1.NameSum != r2.NameSum || r1.Checksum != r2.Checksum {
		t.Fatalf("names/checksum diverged: (%d,%#x) vs (%d,%#x)",
			r1.NameSum, r1.Checksum, r2.NameSum, r2.Checksum)
	}
	j1, j2 := r1.Stable().JSON(), r2.Stable().JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("stable JSON not byte-identical:\n--- run 1:\n%s\n--- run 2:\n%s", j1, j2)
	}

	if r1.Crashes == 0 {
		t.Fatal("churn plan fired no crashes on the simulator")
	}
	if r1.Waves != r1.Ops {
		t.Fatalf("churn should be all waves: waves=%d ops=%d", r1.Waves, r1.Ops)
	}

	// A different seed must drive a different execution.
	r3 := RunSim(s, 8)
	if r3.Checksum == r1.Checksum && r3.NameSum == r1.NameSum {
		t.Fatal("distinct seeds produced identical checksums — seed is not reaching the execution")
	}
}

// TestSimReplayMatches pins the helper renameload -runtime sim uses for
// its verdict.
func TestSimReplayMatches(t *testing.T) {
	r, ok := SimReplayMatches(simScenario(t, "churn", 80), 3)
	if !ok {
		t.Fatalf("replay mismatch: %s", r.JSON())
	}
	if r.Verdict != "ok" {
		t.Fatalf("verdict %q, want ok", r.Verdict)
	}
}

// TestSimCatalogDeterministic sweeps the whole catalog through the
// simulator runner: every scenario must run, verdict ok, and replay
// bit-identically per seed.
//
// At the seed and op budget `renameload -scenario S -runtime sim -json`
// uses (the scenario's own), each scenario's stable report must also match
// testdata/sim-S.json byte for byte, so a change that moves a schedule
// fails here even though it replays consistently. A change that means to
// move one deletes the files it moves and reruns the test to write them
// (package golden).
func TestSimCatalogDeterministic(t *testing.T) {
	for _, c := range Catalog() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			golden.Check(t, "testdata/sim-"+c.Name+".json", RunSim(c, c.Seed).Stable().JSON())

			s := c
			s.Ops = 48
			r1 := RunSim(s, 21)
			r2 := RunSim(s, 21)
			if r1.Verdict != "ok" {
				t.Fatalf("verdict %q\n%s", r1.Verdict, r1.JSON())
			}
			if !bytes.Equal(r1.Stable().JSON(), r2.Stable().JSON()) {
				t.Fatal("sim replay diverged")
			}
			if r1.Ops != 48 {
				t.Fatalf("ops %d, want the exact sim budget 48", r1.Ops)
			}
		})
	}
}

// TestSimWideWaves pins the wave-name buffer growth: wave widths beyond
// the initial buffer capacity (64) must run, not panic.
func TestSimWideWaves(t *testing.T) {
	s := Scenario{
		Name:    "wide",
		Arrival: Arrival{Kind: Steady, Rate: 10},
		Mix:     Mix{Wave: 1},
		WaveK:   80,
		Ops:     2,
		Workers: 1,
	}
	r := RunSim(s, 1)
	if r.Verdict != "ok" || r.Waves != 2 {
		t.Fatalf("wide-wave sim run broken: verdict %q, waves %d", r.Verdict, r.Waves)
	}
}

// TestSimPhaseMapping checks that sim ops land in every phase class of a
// burst profile (the op-index → virtual-time mapping).
func TestSimPhaseMapping(t *testing.T) {
	s := simScenario(t, "burst", 96)
	s.Duration = 4 * time.Second // 8 half-second segments, two classes
	r := RunSim(s, 5)
	if len(r.Phases) != 2 {
		t.Fatalf("burst report has %d phases, want 2 (low, high)", len(r.Phases))
	}
	for _, ph := range r.Phases {
		if ph.Ops == 0 {
			t.Fatalf("phase %q received no sim ops", ph.Phase)
		}
	}
}
