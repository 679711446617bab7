package maxreg

import (
	"fmt"
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// scriptOp is one operation of a sequential script against an object
// built on some runtime. run returns the value the operation read (0 for
// writes); read marks operations whose value is checked against want.
type scriptOp struct {
	name string
	run  func(p shmem.Proc) uint64
	read bool
	want uint64
}

// checkNativeMatchesSim builds one object on the native runtime and one on
// a one-process sequential simulator, runs the script on both one
// operation at a time, and requires every operation to return the same
// value and take the same operation counts on both. The native operations
// run on an unhooked standalone proc, so they take the devirtualized
// register path, where a write of the value a register holds stores
// nothing; the simulator's registers store every write.
func checkNativeMatchesSim(t *testing.T, label string, build func(mem shmem.Mem) []scriptOp) {
	t.Helper()
	for _, pad := range []bool{false, true} {
		nrt := shmem.NewNative(1, shmem.WithRegisterPadding(pad))
		np := nrt.NewProc(0)
		native := build(nrt)
		srt := sim.New(1, sim.NewSequential())
		simulated := build(srt)
		for i, op := range native {
			np.Reset()
			got := op.run(np)
			srt.Reset(1, sim.NewSequential()) // run state only; registers keep their values
			var want uint64
			st := srt.Run(1, func(p shmem.Proc) { want = simulated[i].run(p) })
			if got != want {
				t.Fatalf("%s pad=%v op %d %s: native returned %d, simulator %d", label, pad, i, op.name, got, want)
			}
			if np.Counts() != st.PerProc[0] {
				t.Fatalf("%s pad=%v op %d %s: native counts %+v, simulator %+v", label, pad, i, op.name, np.Counts(), st.PerProc[0])
			}
			if op.read && got != op.want {
				t.Fatalf("%s pad=%v op %d %s: read %d, want %d", label, pad, i, op.name, got, op.want)
			}
		}
	}
}

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

// TestNativeStepsMatchSim pins the native register path to the simulator
// step for step: bounded registers that are flat (1, 64), one switch over
// flat halves (65) and many levels of lazily allocated switches (2^20);
// the unbounded register across many spine levels; and a merge-layout AAC
// counter under increments, reads and merges that rewrite held totals.
func TestNativeStepsMatchSim(t *testing.T) {
	for _, m := range []uint64{1, 64, 65, 1 << 20} {
		checkNativeMatchesSim(t, fmt.Sprintf("Bounded(%d)", m), func(mem shmem.Mem) []scriptOp {
			return maxScript(NewBounded(mem, m), risingValues(m))
		})
	}
	checkNativeMatchesSim(t, "Unbounded", func(mem shmem.Mem) []scriptOp {
		return maxScript(NewUnbounded(mem), append(risingValues(1<<20), 1<<40))
	})
	checkNativeMatchesSim(t, "AACCounter", func(mem shmem.Mem) []scriptOp {
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
		for round := range 48 {
			for range 1 + round%3 {
				ops = append(ops, scriptOp{name: "Inc", run: func(p shmem.Proc) uint64 {
					c.Inc(p)
					return 0
				}})
				incs++
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
		return ops
	})
}
