package shmem

import (
	"sync"
	"sync/atomic"
	"testing"
)

// lockedMem is a synchronized third-party Mem (not the native runtime, not
// the simulator, no ArenaMem): registers guard their word with a mutex.
// It exercises the FastReg interface-fallback path under real concurrency.
type lockedMem struct{}

type lockedReg struct {
	mu sync.Mutex
	v  uint64
}

func (r *lockedReg) Read(p Proc) uint64 {
	p.Step(OpRead)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v
}

func (r *lockedReg) Write(p Proc, v uint64) {
	p.Step(OpWrite)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.v = v
}

func (r *lockedReg) CompareAndSwap(p Proc, old, new uint64) bool {
	p.Step(OpCAS)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.v == old {
		r.v = new
		return true
	}
	return false
}

func (r *lockedReg) Restore(v uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.v = v
}

func (lockedMem) NewReg(init uint64) Reg       { return &lockedReg{v: init} }
func (lockedMem) NewCASReg(init uint64) CASReg { return &lockedReg{v: init} }

// TestFastRegNativePath pins the devirtualized path: a native register
// wrapped in Fast must expose the atomic word directly and keep exact step
// accounting through the direct NativeProc call.
func TestFastRegNativePath(t *testing.T) {
	for _, pad := range []bool{false, true} {
		rt := NewNative(1, WithRegisterPadding(pad))
		f := Fast(rt.NewReg(3))
		rt.Run(1, func(p Proc) {
			if got := f.Read(p); got != 3 {
				t.Errorf("pad=%v: Read = %d, want 3", pad, got)
			}
			f.Write(p, 9)
			if !f.CompareAndSwap(p, 9, 12) {
				t.Errorf("pad=%v: CAS failed", pad)
			}
			if got, want := p.(*NativeProc).StepsTaken(), uint64(3); got != want {
				t.Errorf("pad=%v: %d steps accounted, want %d", pad, got, want)
			}
		})
		f.Restore(0)
		rt.Run(1, func(p Proc) {
			if got := f.Read(p); got != 0 {
				t.Errorf("pad=%v: Read after Restore = %d, want 0", pad, got)
			}
		})
	}
}

// TestFastRegFallback covers the interface-fallback path: registers from a
// third-party Mem keep their exact semantics (including step accounting
// through the Proc they are handed) behind the FastReg handle.
func TestFastRegFallback(t *testing.T) {
	var mem lockedMem
	f := Fast(mem.NewCASReg(5))
	rt := NewNative(1)
	rt.Run(1, func(p Proc) {
		if got := f.Read(p); got != 5 {
			t.Errorf("Read = %d, want 5", got)
		}
		f.Write(p, 7)
		if f.CompareAndSwap(p, 6, 8) {
			t.Error("CAS with wrong old value succeeded")
		}
		if !f.CompareAndSwap(p, 7, 8) {
			t.Error("CAS with right old value failed")
		}
		if got, want := p.(*NativeProc).StepsTaken(), uint64(4); got != want {
			t.Errorf("%d steps accounted through the fallback, want %d", got, want)
		}
	})
	f.Restore(1)
	rt.Run(1, func(p Proc) {
		if got := f.Read(p); got != 1 {
			t.Errorf("Read after Restore = %d, want 1", got)
		}
	})
}

// TestFastRegFallbackConcurrent hammers one fallback register from many
// native procs (CAS increment loop): the handle must neither lose updates
// nor bypass the third-party implementation's own synchronization. The
// arena comes from the NewRegs fallback (register-at-a-time), covering
// FastAt over a fallbackArena too.
func TestFastRegFallbackConcurrent(t *testing.T) {
	const (
		procs = 8
		incs  = 200
	)
	var mem lockedMem
	a := NewRegs(mem, 2)
	ctr := FastAt(a, 0)
	done := FastAt(a, 1)
	rt := NewNative(2)
	rt.Run(procs, func(p Proc) {
		for i := 0; i < incs; i++ {
			for {
				old := ctr.Read(p)
				if ctr.CompareAndSwap(p, old, old+1) {
					break
				}
			}
		}
		done.Write(p, 1)
	})
	rt.Run(1, func(p Proc) {
		if got := ctr.Read(p); got != procs*incs {
			t.Fatalf("lost updates through the fallback handle: %d, want %d", got, procs*incs)
		}
	})
	a.Reset()
	rt.Run(1, func(p Proc) {
		if got := ctr.Read(p); got != 0 {
			t.Fatalf("fallback arena Reset left %d", got)
		}
	})
}

// TestLazyTableConcurrentGrowth drives the table through many
// doublings from disjoint concurrent writers while readers continuously
// probe published keys — the growth-under-contention regime (run under
// -race in CI). Every inserted key must be present afterwards, and readers
// must never observe a key without its value.
func TestLazyTableConcurrentGrowth(t *testing.T) {
	tab := NewLazyTable[uint64]()
	const (
		writers   = 8
		perWriter = 4_000 // 32k entries: ~9 doublings from the 64-slot start
	)
	var published atomic.Uint64 // highest key fully published by writer 0
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: probe keys writer 0 already published; the value must always
	// be key+1 (a key visible without its value would read as 0).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if hi := published.Load(); hi != 0 {
					if v, ok := tab.Lookup(hi); !ok || v != hi+1 {
						t.Errorf("published key %d: got %d,%v, want %d,true", hi, v, ok, hi+1)
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			base := uint64(w*perWriter) + 1
			for i := uint64(0); i < perWriter; i++ {
				k := base + i
				tab.Insert(k, k+1)
				if w == 0 {
					published.Store(k)
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got, want := tab.Len(), writers*perWriter; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for k := uint64(1); k <= writers*perWriter; k++ {
		if v, ok := tab.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %d lost across concurrent growth: got %d,%v", k, v, ok)
		}
	}
}
