package sweep

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/golden"
)

func testSpace(t *testing.T, names []string, seeds int) *Space {
	t.Helper()
	var objs []ObjectSpec
	for _, n := range names {
		o, ok := ObjectByName(n)
		if !ok {
			t.Fatalf("no catalog object %q", n)
		}
		objs = append(objs, o)
	}
	sp, err := NewSpace(objs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func runStable(t *testing.T, sp *Space, opts Options) []byte {
	t.Helper()
	s, err := New(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run().Stable().JSON()
}

// TestGridDeterminism pins the sweep's core contract: the stable report is
// bit-identical across worker counts, task interleavings, and repeated runs.
//
// The space `renamesweep -seeds 2 -budget 400 -json` runs (every catalog
// object) must also report, at one and at two workers, what
// testdata/grid-seeds2-budget400.json holds, byte for byte. A change that
// means to move a schedule deletes the file and reruns the test to write
// it (package golden).
func TestGridDeterminism(t *testing.T) {
	all, err := NewSpace(Objects(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		got := append(runStable(t, all, Options{Workers: w, Budget: 400}), '\n')
		golden.Check(t, "testdata/grid-seeds2-budget400.json", got)
	}

	sp := testSpace(t, []string{"rename4", "bitbatch64", "counter8"}, 3)
	base := runStable(t, sp, Options{Workers: 1})
	for _, w := range []int{1, 2, 3, runtime.GOMAXPROCS(0), 8} {
		for rep := 0; rep < 2; rep++ {
			got := runStable(t, sp, Options{Workers: w})
			if !bytes.Equal(base, got) {
				t.Fatalf("workers=%d rep=%d: report differs from workers=1:\n%s\n-- vs --\n%s", w, rep, got, base)
			}
		}
	}
}

// TestSearchDeterminism pins the same contract for annealing-search mode:
// chains are pure functions of their task index, so the harvested worst
// cases agree across any parallel execution.
func TestSearchDeterminism(t *testing.T) {
	sp := testSpace(t, []string{"rename4", "counter8"}, 2)
	opts := Options{Workers: 1, SearchIters: 30, Chains: 3}
	base := runStable(t, sp, opts)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		opts.Workers = w
		got := runStable(t, sp, opts)
		if !bytes.Equal(base, got) {
			t.Fatalf("workers=%d: search report differs:\n%s\n-- vs --\n%s", w, got, base)
		}
	}
}

// TestGridVerdictAndHarvest runs the full default grid on one renaming
// object and checks the clean-sweep contract: no violations, and the worst
// case harvested, re-recorded at the observed step count, checked valid,
// and replayed bit-identically.
func TestGridVerdictAndHarvest(t *testing.T) {
	sp := testSpace(t, []string{"rename8"}, 2)
	s, err := New(sp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()
	if !rep.OK() {
		t.Fatalf("verdict = %q, want ok:\n%s", rep.Verdict, rep.JSON())
	}
	if rep.Executions != uint64(sp.Tasks()) {
		t.Fatalf("executions = %d, want %d", rep.Executions, sp.Tasks())
	}
	if len(rep.Harvests) == 0 {
		t.Fatal("no harvests in a sweep with executions")
	}
	h := rep.Harvests[0]
	if h.Why != "worst" {
		t.Fatalf("first harvest why = %q, want worst", h.Why)
	}
	if !h.SourceMatch {
		t.Fatalf("harvest did not reproduce the observed step count: %+v", h)
	}
	if !h.ReplayIdentical {
		t.Fatalf("harvest replay diverged: %+v", h)
	}
	if h.CheckErr != "" {
		t.Fatalf("harvested worst case fails validity: %s", h.CheckErr)
	}
	if h.Decisions == 0 || h.Events == 0 {
		t.Fatalf("harvest recorded an empty log: %+v", h)
	}
	if h.Ref.Steps != rep.Objects[0].Worst.Steps {
		t.Fatalf("harvest ref steps %d != object worst %d", h.Ref.Steps, rep.Objects[0].Worst.Steps)
	}
}

// TestSearchHarvest checks that search mode's harvested worst cases also
// re-record and replay, including ones with search-proposed crash plans.
func TestSearchHarvest(t *testing.T) {
	sp := testSpace(t, []string{"rename4"}, 1)
	s, err := New(sp, Options{Workers: 2, SearchIters: 60, Chains: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()
	if !rep.OK() {
		t.Fatalf("verdict = %q, want ok:\n%s", rep.Verdict, rep.JSON())
	}
	if rep.Executions != 60*4 {
		t.Fatalf("executions = %d, want %d", rep.Executions, 60*4)
	}
	if len(rep.Harvests) != 1 {
		t.Fatalf("harvests = %d, want 1", len(rep.Harvests))
	}
}

// TestBudget caps grid executions at the budget.
func TestBudget(t *testing.T) {
	sp := testSpace(t, []string{"rename4"}, 4)
	s, err := New(sp, Options{Workers: 2, Budget: 7, NoHarvest: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()
	if rep.Executions != 7 {
		t.Fatalf("executions = %d, want 7", rep.Executions)
	}
}

// TestWorkerTaskAllocFree pins the engine's steady state: after the arena
// warms up, running a grid task — decode, adversary rearm, crash-plan arm,
// execution, evaluation, accumulation — allocates nothing.
func TestWorkerTaskAllocFree(t *testing.T) {
	sp := testSpace(t, []string{"rename4", "bitbatch64", "counter8"}, 2)
	s, err := New(sp, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{sp: sp}
	w := &worker{
		eng:   e,
		arena: newArena(sp.Objects, s.opts.StepCap),
		accs:  make([]objAcc, len(sp.Objects)),
	}
	defer w.arena.close()
	n := sp.Tasks()
	for task := 0; task < n; task++ {
		w.runTask(task) // warm up: build every slot, park every coroutine
	}
	task := 0
	avg := testing.AllocsPerRun(200, func() {
		w.runTask(task)
		task = (task + 1) % n
	})
	if avg != 0 {
		t.Fatalf("grid task steady state allocates %.2f allocs/run, want 0", avg)
	}
}

// TestCheckNames covers the allocation-free validity check directly.
func TestCheckNames(t *testing.T) {
	crashFree := make([]bool, 4)
	cases := []struct {
		name    string
		names   []uint64
		crashed []bool
		bound   int
		tight   bool
		want    violKind
	}{
		{"tight-ok", []uint64{2, 4, 1, 3}, crashFree, 4, true, violNone},
		{"loose-ok", []uint64{7, 4, 1, 3}, crashFree, 8, false, violNone},
		{"zero", []uint64{0, 2, 3, 4}, crashFree, 4, true, violOutOfRange},
		{"high", []uint64{1, 2, 3, 5}, crashFree, 4, true, violOutOfRange},
		{"dup", []uint64{1, 2, 2, 4}, crashFree, 4, true, violDuplicate},
		{"not-tight", []uint64{1, 2, 3, 5}, crashFree, 8, true, violNotTight},
		{"crashed-skipped", []uint64{1, 0, 3, 2}, []bool{false, true, false, false}, 4, true, violNone},
		{"crashed-dup", []uint64{1, 0, 3, 3}, []bool{false, true, false, false}, 4, true, violDuplicate},
	}
	for _, c := range cases {
		if got := checkNames(c.names, c.crashed, c.bound, c.tight); got != c.want {
			t.Errorf("%s: checkNames = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSpaceDecode pins the task encoding round trip.
func TestSpaceDecode(t *testing.T) {
	sp := testSpace(t, []string{"rename4", "counter8"}, 3)
	n := sp.Tasks()
	want := 2 * len(sp.Advs) * len(sp.Plans) * 3
	if n != want {
		t.Fatalf("tasks = %d, want %d", n, want)
	}
	seen := make(map[[4]int]bool, n)
	prevObj := -1
	for task := 0; task < n; task++ {
		o, a, p, s := sp.Decode(task)
		key := [4]int{o, a, p, s}
		if seen[key] {
			t.Fatalf("task %d duplicates tuple %v", task, key)
		}
		seen[key] = true
		if o < prevObj {
			t.Fatalf("object index decreased at task %d: objects must vary outermost", task)
		}
		prevObj = o
	}
}
