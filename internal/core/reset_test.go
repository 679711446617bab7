package core

import (
	"sync"
	"testing"

	"repro/internal/shmem"
	"repro/internal/splitter"
	"repro/internal/tas"
)

// recordingMem forwards to a native runtime and keeps every register and
// arena it hands out, so a test can read back all the shared state an
// object graph was given. Lazily built graphs allocate from concurrent
// processes, hence the mutex.
type recordingMem struct {
	*shmem.Native
	mu     sync.Mutex
	regs   []shmem.Reg
	arenas []shmem.RegArena
}

func (m *recordingMem) NewReg(init uint64) shmem.Reg {
	return m.NewCASReg(init)
}

func (m *recordingMem) NewCASReg(init uint64) shmem.CASReg {
	r := m.Native.NewCASReg(init)
	m.mu.Lock()
	m.regs = append(m.regs, r)
	m.mu.Unlock()
	return r
}

func (m *recordingMem) NewRegs(n int) shmem.RegArena {
	a := m.Native.NewRegs(n)
	m.mu.Lock()
	m.arenas = append(m.arenas, a)
	m.mu.Unlock()
	return a
}

// nonzero returns how many of the registers handed out read nonzero and
// how many were handed out.
func (m *recordingMem) nonzero() (dirty, total int) {
	for _, r := range m.regs {
		if shmem.Fast(r).Word().Load() != 0 {
			dirty++
		}
	}
	total = len(m.regs)
	for _, a := range m.arenas {
		words, shift := shmem.ArenaWords(a)
		for i := 0; i < a.Len(); i++ {
			if words[i<<shift].Load() != 0 {
				dirty++
			}
		}
		total += a.Len()
	}
	return dirty, total
}

// TestStrongAdaptiveResetZeroesEveryRegister checks on the native runtime
// that Reset restores every register word a StrongAdaptive instance was
// handed: after a solo rename, and after a wave wide enough that its
// splitter tree fills more than one chunk. The splitter tree restores only
// the registers it handed out and the comparator table ranges its entries,
// so a Reset that skipped the tree's current chunk, or a Range that missed
// an entry, leaves a word set here. Both comparator flavors run: the
// served hardware TAS (one register each) and the pooled two-process TAS
// (arena-backed).
func TestStrongAdaptiveResetZeroesEveryRegister(t *testing.T) {
	makers := []struct {
		name string
		mk   func(shmem.Mem) tas.SidedMaker
	}{
		{"unit", func(shmem.Mem) tas.SidedMaker { return tas.MakeUnit }},
		{"twoproc-pool", tas.MakeTwoProcPool},
	}
	for _, m := range makers {
		for _, k := range []int{1, 40} {
			rec := &recordingMem{Native: shmem.NewNative(uint64(k))}
			sa := NewStrongAdaptive(rec, splitter.NewTree(rec), m.mk(rec))
			for round := 0; round < 3; round++ {
				names := make([]uint64, k)
				rec.Run(k, func(p shmem.Proc) {
					names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
				})
				if err := CheckUniqueTight(names); err != nil {
					t.Fatalf("%s k=%d round %d: %v", m.name, k, round, err)
				}
				if dirty, _ := rec.nonzero(); dirty == 0 {
					t.Fatalf("%s k=%d round %d: the renames set no register", m.name, k, round)
				}
				sa.Reset()
				if dirty, total := rec.nonzero(); dirty != 0 {
					t.Fatalf("%s k=%d round %d: %d of %d registers read nonzero after Reset",
						m.name, k, round, dirty, total)
				}
			}
			if k > 1 && sa.SplitterNodes() <= 32 {
				t.Fatalf("%s k=%d: %d splitter nodes fit in one chunk; the wave must fill more",
					m.name, k, sa.SplitterNodes())
			}
		}
	}
}
