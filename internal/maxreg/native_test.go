package maxreg

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// scriptOp is one operation of a sequential script against an object
// built on some runtime. run returns the value the operation read (0 for
// writes); read marks operations whose value is checked against want. add
// is n for an AACCounter Add(p, n), 1 for an Inc, and 0 otherwise.
type scriptOp struct {
	name string
	run  func(p shmem.Proc) uint64
	read bool
	want uint64
	add  uint64
}

// stepScript builds one object on a runtime and returns it with a
// sequential script of operations on it.
type stepScript struct {
	label string
	build func(mem shmem.Mem) (shmem.Resettable, []scriptOp)
}

// checkNativeMatchesSim builds the script's object on the native runtime
// and on a one-process sequential simulator, runs the script on both one
// operation at a time, and requires every operation to return the same
// value and take the same operation counts on both, and to advance the
// native proc's Now() by exactly its steps. Each native operation runs in
// a one-process RunGroup.Run. Two legs run unhooked, unpadded and padded,
// so they take the word walks (shmem.DirectProc), where a write of the
// value a register holds stores nothing; the simulator's registers store
// every write. The third leg arms a step hook that lets every step
// through, so its operations take the FastReg walk, as a recorded or
// fault-injected execution does: a step that walk failed to count, or a
// word walk on a hooked proc, would show here.
func checkNativeMatchesSim(t *testing.T, sc stepScript) {
	t.Helper()
	label := sc.label
	legs := []struct {
		name   string
		pad    bool
		hooked bool
	}{
		{"pad=false", false, false},
		{"pad=true", true, false},
		{"hooked", false, true},
	}
	for _, leg := range legs {
		nrt := shmem.NewNative(1, shmem.WithRegisterPadding(leg.pad))
		g := nrt.NewRunGroup(1)
		if leg.hooked {
			g.SetHook(passHook{})
		}
		_, native := sc.build(nrt)
		srt := sim.New(1, sim.NewSequential())
		_, simulated := sc.build(srt)
		for i, op := range native {
			var got, advanced uint64
			var direct bool
			counts := g.Run(func(p shmem.Proc) {
				direct = shmem.DirectProc(p) != nil
				start := p.Now()
				got = op.run(p)
				advanced = p.Now() - start
			}).PerProc[0]
			if direct == leg.hooked {
				t.Fatalf("%s %s op %d %s: DirectProc non-nil = %v on a hooked=%v proc", label, leg.name, i, op.name, direct, leg.hooked)
			}
			srt.Reset(1, sim.NewSequential()) // run state only; registers keep their values
			var want uint64
			st := srt.Run(1, func(p shmem.Proc) { want = simulated[i].run(p) })
			if got != want {
				t.Fatalf("%s %s op %d %s: native returned %d, simulator %d", label, leg.name, i, op.name, got, want)
			}
			if counts != st.PerProc[0] {
				t.Fatalf("%s %s op %d %s: native counts %+v, simulator %+v", label, leg.name, i, op.name, counts, st.PerProc[0])
			}
			if advanced != counts.Steps() {
				t.Fatalf("%s %s op %d %s: Now() advanced by %d over %d steps", label, leg.name, i, op.name, advanced, counts.Steps())
			}
			if op.read && got != op.want {
				t.Fatalf("%s %s op %d %s: read %d, want %d", label, leg.name, i, op.name, got, op.want)
			}
		}
	}
}

// passHook arms a RunGroup without crashing or recording anything.
type passHook struct{}

func (passHook) OnStep(*shmem.NativeProc, shmem.Op) bool { return true }
func (passHook) OnExit(*shmem.NativeProc, bool)          {}

// risingValues returns a rising run of values below limit, dense at the
// bottom and about a third apart above it, ending at limit−1.
func risingValues(limit uint64) []uint64 {
	var vs []uint64
	for v := uint64(0); v < limit-1; v += 1 + v/3 {
		vs = append(vs, v)
	}
	return append(vs, limit-1)
}

// maxScript writes each value of vals in turn, then writes it again (the
// held value), writes a smaller value, and reads the maximum back.
func maxScript(r MaxReg, vals []uint64) []scriptOp {
	var ops []scriptOp
	write := func(v uint64) {
		ops = append(ops, scriptOp{name: fmt.Sprintf("WriteMax(%d)", v), run: func(p shmem.Proc) uint64 {
			r.WriteMax(p, v)
			return 0
		}})
	}
	for _, v := range vals {
		write(v)
		write(v)
		write(v / 2)
		ops = append(ops, scriptOp{name: "ReadMax", read: true, want: v, run: r.ReadMax})
	}
	return ops
}

// stepScripts are the scripts of TestNativeStepsMatchSim: bounded
// registers that are flat (1, 64), one switch over flat halves (65) and
// many levels of lazily allocated switches (2^20); the unbounded register
// across many spine levels; and a merge-layout AAC counter under
// increments, adds of 2 to 2^20+1 (one increment's walk each, whose value
// must read as that many increments), reads and merges that rewrite held
// totals.
func stepScripts() []stepScript {
	var scripts []stepScript
	for _, m := range []uint64{1, 64, 65, 1 << 20} {
		scripts = append(scripts, stepScript{fmt.Sprintf("Bounded(%d)", m), func(mem shmem.Mem) (shmem.Resettable, []scriptOp) {
			r := NewBounded(mem, m)
			return r, maxScript(r, risingValues(m))
		}})
	}
	scripts = append(scripts, stepScript{"Unbounded", func(mem shmem.Mem) (shmem.Resettable, []scriptOp) {
		r := NewUnbounded(mem)
		return r, maxScript(r, append(risingValues(1<<20), 1<<40))
	}})
	return append(scripts, stepScript{"AACCounter", func(mem shmem.Mem) (shmem.Resettable, []scriptOp) {
		const slots = 4
		c := NewAACCounterWithMerge(mem, 1, slots)
		var incs uint64
		var merged [slots]uint64
		sum := func() uint64 {
			s := incs
			for _, m := range merged {
				s += m
			}
			return s
		}
		var ops []scriptOp
		merge := func(src int, total uint64) {
			ops = append(ops, scriptOp{name: fmt.Sprintf("Merge(%d, %d)", src, total), run: func(p shmem.Proc) uint64 {
				c.Merge(p, src, total)
				return 0
			}})
			merged[src] = max(merged[src], total)
		}
		adds := []uint64{2, 3, 5, 31, 32, 33, 64, 65, 1000, 1 << 12, 1<<20 + 1}
		for round := range 48 {
			for range 1 + round%3 {
				ops = append(ops, scriptOp{name: "Inc", add: 1, run: func(p shmem.Proc) uint64 {
					c.Inc(p)
					return 0
				}})
				incs++
			}
			if round%4 == 1 {
				n := adds[round/4%len(adds)]
				ops = append(ops, scriptOp{name: fmt.Sprintf("Add(%d)", n), add: n, run: func(p shmem.Proc) uint64 {
					c.Add(p, n)
					return 0
				}})
				incs += n
			}
			ops = append(ops,
				scriptOp{name: "Read", read: true, want: sum(), run: c.Read},
				scriptOp{name: "ReadJoined", read: true, want: incs, run: c.ReadJoined})
			src := round % slots
			total := merged[src] + uint64(round)
			merge(src, total)   // rising
			merge(src, total)   // held
			merge(src, total/2) // smaller: no CAS, but the path is refreshed
			ops = append(ops, scriptOp{name: "Read", read: true, want: sum(), run: c.Read})
		}
		return c, ops
	}})
}

// TestNativeStepsMatchSim pins the native register path to the simulator
// step for step on every script of stepScripts.
func TestNativeStepsMatchSim(t *testing.T) {
	for _, sc := range stepScripts() {
		checkNativeMatchesSim(t, sc)
	}
}

// TestNativeWordWalksConcurrent runs the word walks from several unhooked
// native procs at once, unpadded and padded: G goroutines, each with its
// own NewProc(i) on one runtime, share one Unbounded and one merge-layout
// AACCounter. Each goroutine writes rising values that cross the flat width
// and many spine levels, reading after every write, and then increments,
// reading after every increment. A read must return a value some
// goroutine wrote (a switch or spine bit set before the value below it is
// complete would let a reader assemble one nobody wrote), cover the
// goroutine's own completed operations and never fall below its previous
// read; after the join the registers hold the largest value written and
// the exact count. CI runs it under -race.
func TestNativeWordWalksConcurrent(t *testing.T) {
	const (
		G      = 4
		writes = 200 // values up to writes²·G, spine levels 0 to 17
		incs   = 300
	)
	for _, pad := range []bool{false, true} {
		rt := shmem.NewNative(1, shmem.WithRegisterPadding(pad))
		u := NewUnbounded(rt)
		c := NewAACCounterWithMerge(rt, G, G)
		value := func(g int, i uint64) uint64 { return i*i*G + uint64(g) }
		written := make(map[uint64]bool)
		for g := range G {
			for i := range uint64(writes) {
				written[value(g, i)] = true
			}
		}
		var wg sync.WaitGroup
		for g := range G {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := rt.NewProc(g)
				if shmem.DirectProc(p) == nil {
					t.Errorf("pad=%v proc %d: not a direct proc, the word walks would not run", pad, g)
					return
				}
				var last uint64
				for i := range uint64(writes) {
					v := value(g, i)
					u.WriteMax(p, v)
					r := u.ReadMax(p)
					if !written[r] || r < v || r < last {
						t.Errorf("pad=%v proc %d: ReadMax = %d after writing %d, previous read %d", pad, g, r, v, last)
						return
					}
					last = r
				}
				var lastRead, lastJoined uint64
				for i := uint64(1); i <= incs; i++ {
					c.Inc(p)
					r, j := c.Read(p), c.ReadJoined(p)
					if r < i || r < lastRead || j < i || j < lastJoined {
						t.Errorf("pad=%v proc %d: after %d increments Read = %d (previous %d), ReadJoined = %d (previous %d)", pad, g, i, r, lastRead, j, lastJoined)
						return
					}
					lastRead, lastJoined = r, j
				}
			}()
		}
		wg.Wait()
		p := rt.NewProc(0)
		if got, want := u.ReadMax(p), value(G-1, writes-1); got != want {
			t.Errorf("pad=%v: final ReadMax = %d, want %d", pad, got, want)
		}
		if got, want := c.Read(p), uint64(G*incs); got != want {
			t.Errorf("pad=%v: final Read = %d, want %d", pad, got, want)
		}
		if got, want := c.ReadJoined(p), uint64(G*incs); got != want {
			t.Errorf("pad=%v: final ReadJoined = %d, want %d", pad, got, want)
		}
	}
}
