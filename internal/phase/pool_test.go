package phase

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/allocs"
)

// TestPoolDefaults pins option normalization: lanes round up to a power
// of two, and zero values take their defaults, 2×GOMAXPROCS lanes among
// them (no floor: one P gets two lanes).
func TestPoolDefaults(t *testing.T) {
	if o := (Options{Lanes: 5, Epoch: 3}).withDefaults(); o.Lanes != 8 || o.Epoch != 3 {
		t.Errorf("Lanes, Epoch = %d, %d, want 8, 3", o.Lanes, o.Epoch)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, lanes int }{{1, 2}, {2, 4}, {3, 8}} {
		runtime.GOMAXPROCS(c.procs)
		if o := (Options{}).withDefaults(); o.Lanes != c.lanes || o.Epoch != 1024 || o.Policy != Auto {
			t.Errorf("GOMAXPROCS %d: zero Options = %+v, want %d lanes, epoch 1024, Auto", c.procs, o, c.lanes)
		}
	}
}

// TestControllerHysteresis drives the controller deterministically by
// synthesizing per-lane accounting and invoking tick directly: the mode
// must switch only after settle consecutive ticks beyond the threshold, in
// both directions, and a sub-settle burst must not flap it.
func TestControllerHysteresis(t *testing.T) {
	p := NewPool(Options{Lanes: 2, Epoch: 4})
	ln := &p.lanes[0]
	step := func(ops, retries uint64) Mode {
		ln.ops.Add(ops)
		ln.retries.Add(retries)
		p.tick(ln.proc)
		return p.c.Mode()
	}

	if m := step(100, 0); m != Joined {
		t.Fatalf("calm tick 1: mode %v, want joined", m)
	}
	if m := step(100, 50); m != Joined { // first hot tick: streak 1 < settle
		t.Fatalf("hot tick 1: mode %v, want joined (debounced)", m)
	}
	if m := step(100, 50); m != Split { // second hot tick: switch
		t.Fatalf("hot tick 2: mode %v, want split", m)
	}
	if m := step(100, 50); m != Split { // still hot: stays
		t.Fatalf("hot tick 3: mode %v, want split", m)
	}
	if m := step(100, 0); m != Split { // first calm tick: streak 1 < settle
		t.Fatalf("calm tick 2: mode %v, want split (debounced)", m)
	}
	if m := step(100, 3); m != Split { // 0.03 is inside the band: no exit vote
		t.Fatalf("band tick: mode %v, want split (score inside hysteresis band)", m)
	}
	if m := step(100, 0); m != Split { // calm streak restarted by the band tick
		t.Fatalf("calm tick 3: mode %v, want split", m)
	}
	if m := step(100, 0); m != Joined { // second consecutive calm tick: rejoin
		t.Fatalf("calm tick 4: mode %v, want joined", m)
	}
	if sw := p.c.Switches(); sw != 2 {
		t.Fatalf("switches = %d, want 2 (one split, one rejoin)", sw)
	}
}

// TestAddTicksController pins that an Add counts its n ops toward the
// controller's period: the controller evaluates when a lane's count passes
// a multiple of tickOps, not only when it lands on one.
func TestAddTicksController(t *testing.T) {
	p := NewPool(Options{Lanes: 1})
	p.Add(tickOps - 1)
	if p.lastOps != 0 {
		t.Fatalf("controller evaluated at %d ops, before the lane reached %d", p.lastOps, tickOps)
	}
	p.Add(3)
	if p.lastOps != tickOps+2 {
		t.Fatalf("after the lane passed %d ops the controller last saw %d, want %d", tickOps, p.lastOps, tickOps+2)
	}
}

// TestControllerRejoinReconciles pins that the Split→Joined transition
// drains the cells: the spine must carry every split-era increment
// afterwards (no carried staleness into the joined phase).
func TestControllerRejoinReconciles(t *testing.T) {
	// Serving ticks on its own only every tickOps ops per lane, far more
	// than this test runs, so the test drives the controller by hand. A
	// tick that saw no op returns early, so each calm tick follows a run
	// of increments.
	p := NewPool(Options{Lanes: 2, Epoch: 1024})
	p.c.SetMode(Split)
	ln := &p.lanes[0]
	for tick := 1; tick <= settle; tick++ {
		for i := 0; i < 100; i++ {
			p.Inc()
		}
		if lag := p.c.Lag(ln.proc); lag == 0 {
			t.Fatalf("calm tick %d: expected unmerged split-era counts (epoch 1024)", tick)
		}
		p.tick(ln.proc)
	}
	if m := p.c.Mode(); m != Joined {
		t.Fatalf("mode after %d calm ticks = %v, want joined", settle, m)
	}
	if lag := p.c.Lag(ln.proc); lag != 0 {
		t.Fatalf("lag after rejoin = %d, want 0 (rejoin must reconcile)", lag)
	}
	if v := p.ReadStrict(); v != 100*settle {
		t.Fatalf("ReadStrict = %d, want %d", v, 100*settle)
	}
}

// TestPoolModesAgree pins end-to-end exactness per policy: under every
// pinning the counter neither loses nor double-counts concurrent
// increments.
func TestPoolModesAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"auto-aac", Options{Lanes: 4, Epoch: 8}},
		{"pin-joined", Options{Lanes: 4, Policy: PinJoined}},
		{"pin-split", Options{Lanes: 4, Epoch: 8, Policy: PinSplit}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(tc.opts)
			// Each goroutine increments per times, then adds 1 to 19 at a
			// time, runs' totals adding up to added.
			const g, per, runs, added = 8, 5000, 190, 1900
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < per; j++ {
						p.Inc()
					}
					for j := 0; j < runs; j++ {
						p.Add(uint64(1 + j%19))
					}
				}()
			}
			wg.Wait()
			const want = g * (per + added)
			if v := p.ReadStrict(); v != want {
				t.Fatalf("ReadStrict = %d, want %d", v, want)
			}
			if v := p.Read(); v != want {
				t.Fatalf("Read after strict = %d, want %d", v, want)
			}
			if fl := p.InFlight(); fl != 0 {
				t.Fatalf("InFlight after quiescence = %d, want 0", fl)
			}
		})
	}
}

// TestPoolStalenessBound pins the documented split-mode bound: the spine
// trails the fast value by less than one epoch per cell, after single
// increments and after adds whose lengths sit around the epoch, which
// pass a multiple of it far more often than they land on one.
func TestPoolStalenessBound(t *testing.T) {
	const lanes, epoch = 4, 16
	p := NewPool(Options{Lanes: lanes, Epoch: epoch, Policy: PinSplit})
	var want uint64
	check := func(what string) {
		t.Helper()
		st := p.Stats()
		if st.Lag >= lanes*epoch {
			t.Fatalf("%s: lag %d breaches the bound: %d cells × epoch %d", what, st.Lag, lanes, epoch)
		}
		fast := p.Read()
		if spine := p.c.ReadSpine(p.lanes[0].proc); fast-spine >= lanes*epoch {
			t.Fatalf("%s: fast %d − spine %d breaches the %d bound", what, fast, spine, lanes*epoch)
		}
		if fast != want {
			t.Fatalf("%s: fast read = %d, want %d", what, fast, want)
		}
	}
	for i := 0; i < 1000; i++ {
		p.Inc()
	}
	want = 1000
	check("1000 Incs")
	for i, n := range []uint64{epoch - 1, epoch + 1, epoch + 1, epoch + 1, 2*epoch - 1, 2*epoch + 1, 3*epoch + 1, epoch, 1, epoch + 3, 7*epoch - 1} {
		for range 4 {
			p.Add(n)
			want += n
			check(fmt.Sprintf("add %d of %d", i, n))
		}
	}
}

// TestPoolIncAllocFree pins the hot-path allocation rate on the AAC spine
// a server runs: lease, joined spine increment or cell add, cooperative
// merge, accounting. The lanes allocate nothing; the spine's unbounded
// max registers grow now and then as the count rises, about 18,900 times
// and 13.6 MB per 100,000 increments from a count of 1 with registers
// padded for a 2-vCPU box (less unpadded). The bounds sit 1.25× above.
func TestPoolIncAllocFree(t *testing.T) {
	const incs, maxMallocs, maxBytes = 100_000, 23_600, 17_000_000
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"joined", Options{Lanes: 2, Policy: PinJoined}},
		{"split", Options{Lanes: 2, Epoch: 4, Policy: PinSplit}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(tc.opts)
			p.Inc()
			n, b := allocs.Count(incs, p.Inc)
			t.Logf("%d Incs: %d allocations, %d B", incs, n, b)
			if n > maxMallocs || b > maxBytes {
				t.Fatalf("%d Incs made %d allocations and %d B, want at most %d and %d B",
					incs, n, b, maxMallocs, maxBytes)
			}
		})
	}
}

// TestPoolLiveHeap bounds what a served counter keeps live: a joined-mode
// pool, the path a served PhasedInc takes, must hold under 1 MB after 2^20
// increments (2^16 under the race detector). A spine that kept every
// max-register subtree it built held about 45 B per increment on one P
// and 272 B with padded registers.
func TestPoolLiveHeap(t *testing.T) {
	const maxLive = 1 << 20
	incs := uint64(1 << 20)
	if allocs.Race {
		incs = 1 << 16
	}
	base := allocs.LiveHeap()
	p := NewPool(Options{Lanes: 2, Policy: PinJoined})
	for range incs {
		p.Inc()
	}
	live := int64(allocs.LiveHeap()) - int64(base)
	t.Logf("%d Incs keep %d B live", incs, live)
	if got := p.ReadStrict(); got != incs {
		t.Fatalf("ReadStrict = %d after %d Incs", got, incs)
	}
	if live > maxLive {
		t.Fatalf("%d Incs keep %d B live, want at most %d", incs, live, maxLive)
	}
}

// TestPoolStats pins the summary surface; an Add of n counts n ops.
func TestPoolStats(t *testing.T) {
	p := NewPool(Options{Lanes: 2, Epoch: 4, Policy: PinSplit})
	for i := 0; i < 10; i++ {
		p.Inc()
	}
	p.Add(5)
	st := p.Stats()
	if st.Mode != Split {
		t.Errorf("Stats.Mode = %v, want split", st.Mode)
	}
	if st.Ops != 15 {
		t.Errorf("Stats.Ops = %d, want 15", st.Ops)
	}
	if st.Merges == 0 {
		t.Errorf("Stats.Merges = 0, want > 0 (epoch 4 over 10 incs)")
	}
	if st.InFlight != 0 {
		t.Errorf("Stats.InFlight = %d, want 0", st.InFlight)
	}
}
