//go:build wordlog

package maxreg

import (
	"sync/atomic"
	"testing"

	"repro/internal/shmem"
)

// wordStep is one native register step as shmem.WordHook sees it.
type wordStep struct {
	Proc int
	Word *atomic.Uint64
	Op   shmem.Op
	Val  uint64
}

// TestWordWalkOrder pins the word walks' step order to the FastReg walk's,
// deterministically. Under the wordlog build tag every native register
// step reaches shmem.WordHook, which logs it here. Each script of
// stepScripts runs on one native instance, unpadded and padded: first
// through the word walk, on an unhooked proc, and then, after a Reset,
// through the FastReg walk, on a proc behind a step hook that lets every
// step through. Each operation must log one entry per step it counts, and
// the same entries in the same order on both walks. A word walk that set a
// switch before writing the subtree it guards would log that write early
// and fail here on every run. An AACCounter Inc or Add(p, n) must take one
// increment's steps: it reads its leaf, writes it once with the value read
// plus n, and then only refreshes the path, writing the leaf no more.
//
// The Reset allocates a fresh left child wherever a set switch dropped
// one, so the FastReg walk meets those registers at new addresses. Words
// are therefore compared under a correspondence that the first meeting of
// each word fixes and that must stay one-to-one for the whole script;
// proc, op and value are compared exactly. Both logs stay referenced until
// the script ends, so no address is reused for another register meanwhile.
//
// Run it with: go test -tags wordlog ./internal/maxreg/
func TestWordWalkOrder(t *testing.T) {
	var log []wordStep
	shmem.WordHook = func(p shmem.Proc, w *atomic.Uint64, op shmem.Op, v uint64) {
		log = append(log, wordStep{p.ID(), w, op, v})
	}
	defer func() { shmem.WordHook = nil }()
	for _, sc := range stepScripts() {
		for _, pad := range []bool{false, true} {
			rt := shmem.NewNative(1, shmem.WithRegisterPadding(pad))
			obj, ops := sc.build(rt)
			direct := rt.NewProc(0)
			words := make([][]wordStep, len(ops))
			for i, op := range ops {
				before := direct.StepsTaken()
				log = nil
				op.run(direct)
				words[i] = log
				if steps := direct.StepsTaken() - before; uint64(len(log)) != steps {
					t.Fatalf("%s pad=%v op %d %s: word walk logged %d steps, counted %d", sc.label, pad, i, op.name, len(log), steps)
				}
				if op.add > 0 {
					checkLeafAdd(t, sc.label, pad, i, op, log)
				}
			}
			obj.Reset()
			fast := make(map[*atomic.Uint64]*atomic.Uint64) // word walk's word -> FastReg walk's
			word := make(map[*atomic.Uint64]*atomic.Uint64) // the inverse
			same := func(w, f wordStep) bool {
				if w.Proc != f.Proc || w.Op != f.Op || w.Val != f.Val {
					return false
				}
				if got, ok := fast[w.Word]; ok {
					return got == f.Word
				}
				if _, ok := word[f.Word]; ok {
					return false
				}
				fast[w.Word], word[f.Word] = f.Word, w.Word
				return true
			}
			g := rt.NewRunGroup(1)
			g.SetHook(passHook{})
			for i, op := range ops {
				log = nil
				g.Run(func(p shmem.Proc) { op.run(p) })
				for j := range max(len(log), len(words[i])) {
					if j >= len(log) || j >= len(words[i]) || !same(words[i][j], log[j]) {
						t.Fatalf("%s pad=%v op %d %s: step %d differs: word walk logged %d steps, FastReg walk %d\nword walk: %v\nFastReg walk: %v",
							sc.label, pad, i, op.name, j, len(words[i]), len(log), words[i], log)
					}
				}
			}
		}
	}
}

// checkLeafAdd requires an increment's word log to open with a read of its
// leaf and a write of that value plus op.add to the same word, and to
// write the leaf nowhere else.
func checkLeafAdd(t *testing.T, label string, pad bool, i int, op scriptOp, log []wordStep) {
	t.Helper()
	if len(log) < 2 || log[0].Op != shmem.OpRead || log[1].Op != shmem.OpWrite ||
		log[1].Word != log[0].Word || log[1].Val != log[0].Val+op.add {
		t.Fatalf("%s pad=%v op %d %s: does not open with a leaf read and a write of it plus %d: %v", label, pad, i, op.name, op.add, log)
	}
	for j, e := range log[2:] {
		if e.Word == log[0].Word && e.Op != shmem.OpRead {
			t.Fatalf("%s pad=%v op %d %s: step %d writes the leaf again: %v", label, pad, i, op.name, j+2, log)
		}
	}
}
