package shmem

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFastRegNativePath pins the devirtualized path: a native register
// wrapped in Fast must expose the atomic word directly and keep exact step
// accounting through the direct NativeProc call. A write of the value the
// register already holds stores nothing but still counts its write step.
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
			before := p.(*NativeProc).Counts()
			f.Write(p, 12)
			after := p.(*NativeProc).Counts()
			if got := f.w.Load(); got != 12 {
				t.Errorf("pad=%v: word after a held-value write = %d, want 12", pad, got)
			}
			before.Ops[OpWrite]++
			if after != before {
				t.Errorf("pad=%v: held-value write accounted %+v, want one more OpWrite than %+v", pad, after, before)
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

// nopHook arms a RunGroup without crashing or recording anything.
type nopHook struct{}

func (nopHook) OnStep(*NativeProc, Op) bool { return true }
func (nopHook) OnExit(*NativeProc, bool)    {}

// TestDirectProcAndWords pins what the max registers' word walks rely on:
// only an unhooked native proc is direct, and ArenaWords and Word address
// the same words as the registers' own methods, unpadded and padded.
func TestDirectProcAndWords(t *testing.T) {
	if DirectProc(NewNative(1).NewProc(0)) == nil {
		t.Error("an unhooked proc is not direct")
	}
	g := NewNative(1).NewRunGroup(1)
	g.SetHook(nopHook{})
	g.Run(func(p Proc) {
		if DirectProc(p) != nil {
			t.Error("a hooked proc is direct")
		}
	})
	for _, pad := range []bool{false, true} {
		rt := NewNative(1, WithRegisterPadding(pad))
		p := rt.NewProc(0)
		const n = 5
		a := rt.NewRegs(n)
		words, shift := ArenaWords(a)
		if len(words) != n<<shift {
			t.Fatalf("pad=%v: %d words at shift %d for %d registers", pad, len(words), shift, n)
		}
		for i := range n {
			a.Reg(i).Write(p, uint64(10+i))
		}
		for i := range n {
			if got := words[i<<shift].Load(); got != uint64(10+i) {
				t.Errorf("pad=%v: word of register %d = %d, want %d", pad, i, got, 10+i)
			}
		}
		words[3<<shift].Store(99)
		if got := a.Reg(3).Read(p); got != 99 {
			t.Errorf("pad=%v: register 3 reads %d after its word was set to 99", pad, got)
		}
		if got := Fast(rt.NewReg(7)).Word().Load(); got != 7 {
			t.Errorf("pad=%v: Word of a register holding 7 reads %d", pad, got)
		}
	}
	if w, _ := ArenaWords(NewNative(1).NewRegs(0)); w != nil {
		t.Error("an empty arena exposes words")
	}
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
