package load

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/phase"
)

// TestSimPhasedChurnDeterministic pins the phased-counter sim path: the
// deterministic mode driver plus crash-storm waves replay bit-identically
// per (seed, scenario), crashes fire, and the run passes its self-checks.
func TestSimPhasedChurnDeterministic(t *testing.T) {
	s := simScenario(t, "phased-churn", 120)
	r1 := RunSim(s, 13)
	r2 := RunSim(s, 13)
	if r1.Verdict != "ok" {
		t.Fatalf("verdict %q\n%s", r1.Verdict, r1.JSON())
	}
	if !bytes.Equal(r1.Stable().JSON(), r2.Stable().JSON()) {
		t.Fatal("phased-churn sim replay diverged")
	}
	if r1.Crashes == 0 {
		t.Fatal("phased-churn crash plan fired no crashes on the simulator")
	}
	if r1.Incs == 0 || r1.Waves == 0 {
		t.Fatalf("mix starved a kind: incs=%d waves=%d", r1.Incs, r1.Waves)
	}
	if r3 := RunSim(s, 14); r3.Checksum == r1.Checksum {
		t.Fatal("distinct seeds produced identical phased checksums")
	}
}

// TestSimPhasedModeDriver pins the deterministic mode mapping: burst
// profiles split in the high phase, churn profiles split past the width
// midpoint — exercised end to end by checking both catalog scenarios
// schedule split- and joined-mode ops.
func TestSimPhasedModeDriver(t *testing.T) {
	s := simScenario(t, "phased", 96)
	s.Duration = 4 * time.Second
	r := RunSim(s, 9)
	if r.Verdict != "ok" {
		t.Fatalf("verdict %q", r.Verdict)
	}
	// Both burst classes must have run ops: the driver saw low- and
	// high-rate windows (joined and split).
	for _, ph := range r.Phases {
		if ph.Ops == 0 {
			t.Fatalf("phase %q received no ops", ph.Phase)
		}
	}
}

// TestNativePhasedRun is the native smoke leg: a short phased run against a
// fresh target completes with verdict ok, the shared phased counter holds
// exactly the run's increments (the waves count on private instances),
// and the phased-wave pool has recycled its instances.
func TestNativePhasedRun(t *testing.T) {
	s, ok := Find("phased-churn")
	if !ok {
		t.Fatal("catalog scenario phased-churn missing")
	}
	s.Duration = 300 * time.Millisecond
	s.Ops = 400
	s.Arrival.Rate = 4000 // shrink the wave rate's wall-clock footprint
	tg := NewTarget(s.Seed)
	r := Run(s, tg)
	if r.Verdict != "ok" {
		t.Fatalf("verdict %q\n%s", r.Verdict, r.JSON())
	}
	if r.Incs == 0 {
		t.Fatal("the mix drew no increments")
	}
	if st := tg.Phased.Stats(); st.Ops != r.Incs+r.Reads {
		t.Fatalf("phased pool served %d ops for %d incs and %d reads", st.Ops, r.Incs, r.Reads)
	}
	if got := tg.Phased.ReadStrict(); got != r.Incs {
		t.Fatalf("phased counter reads %d after %d incs", got, r.Incs)
	}
	if r.Waves > 0 && tg.PhasedWave.InFlight() != 0 {
		t.Fatalf("phased-wave pool leaked instances: %d in flight", tg.PhasedWave.InFlight())
	}
}

// TestPhasedWaveExact pins the phased wave body itself: fault-free waves on
// a pooled instance produce the exact count, and the pool recycles the
// counter to a fresh state (the reuse contract at the load layer).
func TestPhasedWaveExact(t *testing.T) {
	tg := NewTarget(99)
	const k = 6
	if crashed := tg.runPhasedWave(k, nil); crashed != 0 {
		t.Fatalf("fault-free wave reported %d crashes", crashed)
	}
	in := tg.PhasedWave.Get()
	defer in.Put()
	c := in.Obj
	p := in.Proc()
	if v := c.ReadStrict(p); v != 0 {
		t.Fatalf("recycled wave counter reads %d, want 0 (reset-on-Put)", v)
	}
	if m := c.Mode(); m != phase.Joined {
		t.Fatalf("recycled wave counter mode %v, want joined", m)
	}
}
