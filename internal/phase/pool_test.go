package phase

import (
	"sync"
	"testing"
	"time"
)

// TestPoolDefaults pins option normalization: powers of two, hysteresis
// band ordering, settle floor.
func TestPoolDefaults(t *testing.T) {
	o := Options{Lanes: 5, Epoch: 3, TickOps: 100, EnterSplit: 0.02, ExitSplit: 0.08}.withDefaults()
	if o.Lanes != 8 {
		t.Errorf("Lanes = %d, want 8", o.Lanes)
	}
	if o.TickOps != 128 {
		t.Errorf("TickOps = %d, want 128", o.TickOps)
	}
	if o.ExitSplit >= o.EnterSplit {
		t.Errorf("hysteresis band inverted: exit %v >= enter %v", o.ExitSplit, o.EnterSplit)
	}
	if o.Settle != 2 {
		t.Errorf("Settle = %d, want 2", o.Settle)
	}
}

// TestControllerHysteresis drives the controller deterministically by
// synthesizing per-lane accounting and invoking tick directly: the mode
// must switch only after Settle consecutive ticks beyond the threshold, in
// both directions, and a sub-Settle burst must not flap it.
func TestControllerHysteresis(t *testing.T) {
	p := NewPool(Options{Lanes: 2, Epoch: 4, TickOps: 64, EnterSplit: 0.05, ExitSplit: 0.01, Settle: 2})
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
	if m := step(100, 50); m != Joined { // first hot tick: streak 1 < Settle
		t.Fatalf("hot tick 1: mode %v, want joined (debounced)", m)
	}
	if m := step(100, 50); m != Split { // second hot tick: switch
		t.Fatalf("hot tick 2: mode %v, want split", m)
	}
	if m := step(100, 50); m != Split { // still hot: stays
		t.Fatalf("hot tick 3: mode %v, want split", m)
	}
	if m := step(100, 0); m != Split { // first calm tick: streak 1 < Settle
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

// TestControllerRejoinReconciles pins that the Split→Joined transition
// drains the cells: the spine must carry every split-era increment
// afterwards (no carried staleness into the joined phase).
func TestControllerRejoinReconciles(t *testing.T) {
	// TickOps is huge so serving never ticks on its own; the test drives the
	// controller by hand.
	p := NewPool(Options{Lanes: 2, Epoch: 1024, TickOps: 1 << 20, Settle: 1})
	p.c.SetMode(Split)
	for i := 0; i < 100; i++ {
		p.Inc()
	}
	if lag := p.c.Lag(p.lanes[0].proc); lag == 0 {
		t.Fatal("expected unmerged split-era counts before rejoin (epoch 1024)")
	}
	ln := &p.lanes[0]
	p.tick(ln.proc) // calm tick, Settle=1: rejoins and reconciles
	if m := p.c.Mode(); m != Joined {
		t.Fatalf("mode after calm tick = %v, want joined", m)
	}
	if lag := p.c.Lag(p.lanes[0].proc); lag != 0 {
		t.Fatalf("lag after rejoin = %d, want 0 (rejoin must reconcile)", lag)
	}
	if v := p.ReadStrict(); v != 100 {
		t.Fatalf("ReadStrict = %d, want 100", v)
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
		{"auto-aac", Options{Lanes: 4, Epoch: 8, TickOps: 64}},
		{"pin-joined", Options{Lanes: 4, Policy: PinJoined}},
		{"pin-split", Options{Lanes: 4, Epoch: 8, Policy: PinSplit}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(tc.opts)
			const g, per = 8, 5000
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < per; j++ {
						p.Inc()
					}
				}()
			}
			wg.Wait()
			if v := p.ReadStrict(); v != g*per {
				t.Fatalf("ReadStrict = %d, want %d", v, g*per)
			}
			if v := p.Read(); v != g*per {
				t.Fatalf("Read after strict = %d, want %d", v, g*per)
			}
			if fl := p.InFlight(); fl != 0 {
				t.Fatalf("InFlight after quiescence = %d, want 0", fl)
			}
		})
	}
}

// TestPoolStalenessBound pins the documented split-mode bound: the spine
// trails the fast value by less than one epoch per cell.
func TestPoolStalenessBound(t *testing.T) {
	const lanes, epoch = 4, 16
	p := NewPool(Options{Lanes: lanes, Epoch: epoch, Policy: PinSplit})
	for i := 0; i < 1000; i++ {
		p.Inc()
	}
	st := p.Stats()
	if st.Lag >= lanes*epoch {
		t.Fatalf("lag %d breaches the bound: %d cells × epoch %d", st.Lag, lanes, epoch)
	}
	fast := p.Read()
	if spine := p.c.ReadSpine(p.lanes[0].proc); fast-spine >= lanes*epoch {
		t.Fatalf("fast %d − spine %d breaches the %d bound", fast, spine, lanes*epoch)
	}
	if fast != 1000 {
		t.Fatalf("fast read = %d, want 1000", fast)
	}
}

// TestPoolReconciler pins the dedicated reconciler: a pinned-split pool
// with a periodic reconciler drives the spine to the fast value without
// any strict read.
func TestPoolReconciler(t *testing.T) {
	p := NewPool(Options{Lanes: 2, Epoch: 1 << 20, Policy: PinSplit, Reconcile: time.Millisecond})
	defer p.Close()
	for i := 0; i < 500; i++ {
		p.Inc()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v := p.c.ReadSpine(p.lanes[0].proc); v == 500 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spine never reconciled: %d, want 500", p.c.ReadSpine(p.lanes[0].proc))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolIncAllocFree pins the hot-path allocation contract on the AAC
// spine a server runs: lease, joined spine increment or cell add,
// cooperative merge, accounting. AllocsPerRun truncates its average, so
// this pins fewer than one allocation per op: the spine's unbounded max
// registers still grow now and then as the count rises.
func TestPoolIncAllocFree(t *testing.T) {
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
			if n := testing.AllocsPerRun(1000, p.Inc); n != 0 {
				t.Fatalf("Inc allocates %.1f/op, want 0", n)
			}
		})
	}
}

// TestPoolStats pins the summary surface.
func TestPoolStats(t *testing.T) {
	p := NewPool(Options{Lanes: 2, Epoch: 4, Policy: PinSplit})
	for i := 0; i < 10; i++ {
		p.Inc()
	}
	st := p.Stats()
	if st.Mode != Split {
		t.Errorf("Stats.Mode = %v, want split", st.Mode)
	}
	if st.Ops != 10 {
		t.Errorf("Stats.Ops = %d, want 10", st.Ops)
	}
	if st.Merges == 0 {
		t.Errorf("Stats.Merges = 0, want > 0 (epoch 4 over 10 incs)")
	}
	if st.InFlight != 0 {
		t.Errorf("Stats.InFlight = %d, want 0", st.InFlight)
	}
}
