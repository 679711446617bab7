package shmem

import (
	"sync"
	"testing"
)

func TestNativeCASIncrements(t *testing.T) {
	const k, each = 8, 1000
	rt := NewNative(1)
	ctr := rt.NewCASReg(0)
	probe := &finalProbe{}
	st := rt.Run(k, func(p Proc) {
		for i := 0; i < each; i++ {
			for {
				v := ctr.Read(p)
				if ctr.CompareAndSwap(p, v, v+1) {
					break
				}
			}
		}
		probe.read(p, ctr)
	})
	if probe.max != k*each {
		t.Fatalf("final counter %d, want %d", probe.max, k*each)
	}
	if len(st.PerProc) != k {
		t.Fatalf("stats for %d procs, want %d", len(st.PerProc), k)
	}
	for i := range st.PerProc {
		if st.PerProc[i].Steps() < 2*each {
			t.Errorf("proc %d took %d steps, want >= %d", i, st.PerProc[i].Steps(), 2*each)
		}
	}
}

// finalProbe records the largest counter value seen at process exit; the
// last process to leave must observe the full total.
type finalProbe struct {
	mu  sync.Mutex
	max uint64
}

func (f *finalProbe) read(p Proc, ctr CASReg) {
	v := ctr.Read(p)
	f.mu.Lock()
	if v > f.max {
		f.max = v
	}
	f.mu.Unlock()
}

func TestNativeCoinStreamsIndependent(t *testing.T) {
	rt := NewNative(7)
	vals := make([][]uint64, 4)
	rt.Run(4, func(p Proc) {
		s := make([]uint64, 20)
		for i := range s {
			s[i] = p.Coin(1 << 30)
		}
		vals[p.ID()] = s
	})
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			same := 0
			for x := range vals[i] {
				if vals[i][x] == vals[j][x] {
					same++
				}
			}
			if same > 2 {
				t.Errorf("procs %d and %d share %d of 20 coin values", i, j, same)
			}
		}
	}
}

func TestOpCountsAccounting(t *testing.T) {
	rt := NewNative(1)
	r := rt.NewReg(0)
	c := rt.NewCASReg(0)
	st := rt.Run(1, func(p Proc) {
		r.Write(p, 1)
		r.Read(p)
		r.Read(p)
		c.CompareAndSwap(p, 0, 1)
		p.Note(EvTASEnter)
		p.Note(EvTASEnter)
		p.Note(EvTASWin)
	})
	pc := st.PerProc[0]
	if pc.Ops[OpWrite] != 1 || pc.Ops[OpRead] != 2 || pc.Ops[OpCAS] != 1 {
		t.Fatalf("op counts %v", pc.Ops)
	}
	if pc.Steps() != 4 {
		t.Fatalf("steps = %d, want 4", pc.Steps())
	}
	if pc.Events[EvTASEnter] != 2 || pc.Events[EvTASWin] != 1 {
		t.Fatalf("event counts %v", pc.Events)
	}
	if st.TotalSteps() != 4 || st.MaxSteps() != 4 {
		t.Fatalf("aggregates: total %d max %d", st.TotalSteps(), st.MaxSteps())
	}
	if st.TotalEvent(EvTASEnter) != 2 || st.MaxEvent(EvTASWin) != 1 {
		t.Fatal("event aggregates wrong")
	}
}

func TestOpStrings(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpCAS.String() != "cas" {
		t.Fatal("op names changed")
	}
}

// TestNativeNowLocalByDefault checks the native clock: Now is the
// process's own step count, monotone per process, and it and StepsTaken
// both read the one count the proc keeps, Counts().Steps(). A second Run on
// the same group and a Reset standalone proc start that count from zero.
func TestNativeNowLocalByDefault(t *testing.T) {
	const k = 4
	rt := NewNative(3)
	r := rt.NewReg(0)
	f := Fast(rt.NewReg(0))
	// steps takes n rounds of one read, write and CAS step through each
	// register path and reports whether the proc's clocks stayed equal to
	// its step count throughout.
	steps := func(p Proc, n int) bool {
		np := p.(*NativeProc)
		ok := true
		check := func(want uint64) {
			c := np.Counts()
			if np.Now() != want || np.StepsTaken() != want || c.Steps() != want {
				ok = false
			}
		}
		for i := 0; i < n; i++ {
			base := uint64(6 * i)
			r.Read(p)
			check(base + 1)
			r.Write(p, 0)
			check(base + 2)
			r.(CASReg).CompareAndSwap(p, 1, 1)
			check(base + 3)
			f.Read(p)
			check(base + 4)
			f.Write(p, 0)
			check(base + 5)
			f.CompareAndSwap(p, 1, 1)
			check(base + 6)
		}
		return ok
	}
	g := rt.NewRunGroup(k)
	for run := 0; run < 2; run++ {
		bad := make([]bool, k)
		g.Run(func(p Proc) { bad[p.ID()] = !steps(p, 50) })
		for i, b := range bad {
			if b {
				t.Fatalf("run %d proc %d: Now and StepsTaken should equal Counts().Steps()", run, i)
			}
		}
	}
	p := rt.NewProc(0)
	for round := 0; round < 2; round++ {
		if !steps(p, 10) {
			t.Fatalf("standalone proc, round %d: Now and StepsTaken should equal Counts().Steps()", round)
		}
		p.Reset()
		if p.Now() != 0 || p.StepsTaken() != 0 {
			t.Fatalf("after Reset: Now %d, StepsTaken %d, want 0", p.Now(), p.StepsTaken())
		}
	}
}

// TestNativeRegisterPaddingKnob checks both register layouts behave
// identically.
func TestNativeRegisterPaddingKnob(t *testing.T) {
	for _, pad := range []bool{false, true} {
		rt := NewNative(1, WithRegisterPadding(pad))
		ctr := rt.NewCASReg(0)
		probe := &finalProbe{}
		rt.Run(4, func(p Proc) {
			for i := 0; i < 200; i++ {
				for {
					v := ctr.Read(p)
					if ctr.CompareAndSwap(p, v, v+1) {
						break
					}
				}
			}
			probe.read(p, ctr)
		})
		if probe.max != 800 {
			t.Fatalf("pad=%v: final counter %d, want 800", pad, probe.max)
		}
	}
}
