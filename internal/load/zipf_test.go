package load

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// TestZipfDeterministicAndSkewed pins the sampler: identical streams give
// identical draws, every draw is in range, and the distribution has the
// Zipf shape (hot head, long cold tail).
func TestZipfDeterministicAndSkewed(t *testing.T) {
	const n, draws = 64, 20000
	z := newZipf(n, 0.99)
	r1 := rng.Derived(7, 1)
	r2 := rng.Derived(7, 1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		a := z.draw(&r1)
		if b := z.draw(&r2); a != b {
			t.Fatalf("draw %d diverged across identical streams: %d vs %d", i, a, b)
		}
		counts[a]++
	}
	head := 0
	for i := 0; i < 16; i++ {
		head += counts[i]
	}
	if head*10 < draws*6 {
		t.Errorf("top-16 targets hold %d/%d draws, want > 60%% under 0.99 skew", head, draws)
	}
	if counts[0] < 10*counts[n-1] {
		t.Errorf("hottest target %d draws vs coldest %d: want ≥ 10×", counts[0], counts[n-1])
	}
}

// TestRunNativeSkewScenario runs the skew catalog scenario end to end on
// the native runtime — the keyed pool checkout path under Zipf targets.
func TestRunNativeSkewScenario(t *testing.T) {
	s, ok := Find("skew")
	if !ok {
		t.Fatal("skew scenario left the catalog")
	}
	s.Duration = 300 * time.Millisecond
	s.Ops = 500
	r := Run(s, nil)
	if r.Ops == 0 {
		t.Fatal("skew scenario completed no operations")
	}
	if r.OpsByKind["rename"] == 0 || r.OpsByKind["inc"] == 0 {
		t.Fatalf("mix not exercised: %v", r.OpsByKind)
	}
	if r.Verdict != "ok" {
		t.Fatalf("verdict = %q: %s", r.Verdict, r.JSON())
	}
}

// TestSkewDefaultsAndStreamIsolation checks the wiring contract: Skew > 0
// defaults Targets, Skew = 0 scenarios never consume target draws (a
// skew-free sim run's checksum must be unchanged by the sampler existing),
// and under skew only renames draw.
func TestSkewDefaultsAndStreamIsolation(t *testing.T) {
	s := Scenario{Mix: Mix{Rename: 1, Skew: 0.5}}
	if got := s.withDefaults().Mix.Targets; got != 64 {
		t.Fatalf("default Targets = %d, want 64", got)
	}
	plain := Scenario{Name: "plain", Arrival: Arrival{Kind: Steady, Rate: 1000}, Mix: Mix{Rename: 1}, Ops: 40}
	r1 := RunSim(plain, 3)
	r2 := RunSim(plain, 3)
	if r1.Checksum != r2.Checksum {
		t.Fatalf("skew-free sim checksum unstable: %#x vs %#x", r1.Checksum, r2.Checksum)
	}
	skewed := plain
	skewed.Mix.Skew = 0.99
	if r3 := RunSim(skewed, 3); r3.Checksum == r1.Checksum {
		t.Fatal("skewed run's checksum equals the skew-free run's — target draws not folded in")
	}
	// Only renames draw a target: skew leaves a counter-only stream as it is.
	counter := plain
	counter.Mix = Mix{Inc: 3, Read: 1}
	skewedCounter := counter
	skewedCounter.Mix.Skew = 0.99
	if a, b := RunSim(counter, 3), RunSim(skewedCounter, 3); a.Checksum != b.Checksum || a.Incs != b.Incs || a.Reads != b.Reads {
		t.Fatalf("skew moved a counter-only run: checksum %#x/%#x, incs %d/%d, reads %d/%d",
			a.Checksum, b.Checksum, a.Incs, b.Incs, a.Reads, b.Reads)
	}
}
