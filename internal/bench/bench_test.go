package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/golden"
)

// quickCfg keeps experiment smoke tests fast.
var quickCfg = Config{Seeds: 2, Quick: true}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:    "EX",
		Title: "example",
		Claim: "claim text",
		Cols:  []string{"a", "bb"},
		Notes: []string{"a note"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("10", "20")

	var plain strings.Builder
	tb.Fprint(&plain)
	for _, want := range []string{"EX — example", "claim text", "a note", "10", "20"} {
		if !strings.Contains(plain.String(), want) {
			t.Errorf("plain output missing %q:\n%s", want, plain.String())
		}
	}

	var md strings.Builder
	tb.Markdown(&md)
	for _, want := range []string{"### EX — example", "| a | bb |", "| --- | --- |", "| 10 | 20 |", "_Note: a note_"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown output missing %q:\n%s", want, md.String())
		}
	}

	var csv strings.Builder
	tb.CSV(&csv)
	if got := csv.String(); got != "id,a,bb\nEX,1,2\nEX,10,20\n" {
		t.Errorf("csv output:\n%s", got)
	}
}

func TestLgAndFormatters(t *testing.T) {
	if lg(1) != 1 || lg(2) != 1 {
		t.Error("lg must clamp small inputs to 1")
	}
	if lg(8) != 3 {
		t.Errorf("lg(8) = %f", lg(8))
	}
	if f1(1.25) != "1.2" && f1(1.25) != "1.3" {
		t.Errorf("f1(1.25) = %s", f1(1.25))
	}
	if f2(2.0) != "2.00" {
		t.Errorf("f2(2.0) = %s", f2(2.0))
	}
	if d(42) != "42" {
		t.Errorf("d(42) = %s", d(42))
	}
}

func TestFitExponent(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	linear := make([]float64, len(xs))
	quadratic := make([]float64, len(xs))
	flat := make([]float64, len(xs))
	for i, x := range xs {
		linear[i] = 3 * x
		quadratic[i] = 0.5 * x * x
		flat[i] = 7
	}
	if b := FitExponent(xs, linear); b < 0.99 || b > 1.01 {
		t.Errorf("linear fit exponent %f, want 1", b)
	}
	if b := FitExponent(xs, quadratic); b < 1.99 || b > 2.01 {
		t.Errorf("quadratic fit exponent %f, want 2", b)
	}
	if b := FitExponent(xs, flat); b < -0.01 || b > 0.01 {
		t.Errorf("flat fit exponent %f, want 0", b)
	}
}

func TestFitExponentPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FitExponent([]float64{1}, []float64{1})
}

func TestAgg(t *testing.T) {
	var a agg
	if a.mean() != 0 {
		t.Error("empty agg mean must be 0")
	}
	a.add(2)
	a.add(4)
	if a.mean() != 3 || a.worst != 4 || a.n != 2 {
		t.Errorf("agg state: %+v", a)
	}
}

// TestAllExperimentsRun is the harness smoke test: every experiment must
// produce a table with the ID it is listed under, its declared columns and
// at least one row, and the correctness columns must all read true.
//
// It is also the simulator's determinism check. The tables, rendered as
// `renamebench -quick -seeds 2` prints them, must match
// testdata/quick-seeds2.txt byte for byte: simulator output is a pure
// function of (seed, adversary), and reads the same at any GOMAXPROCS and
// word size, so a diff means a change moved a schedule or a step count.
// A change that means to do so regenerates the file with
//
//	go run ./cmd/renamebench -quick -seeds 2 > internal/bench/testdata/quick-seeds2.txt
//
// and says why in its description.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	exps := Experiments()
	if len(exps) != 13 {
		t.Fatalf("got %d experiments", len(exps))
	}
	seen := map[string]bool{}
	var out bytes.Buffer
	for _, e := range exps {
		tb := e.Run(quickCfg)
		tb.Fprint(&out)
		if tb.ID != e.ID {
			t.Errorf("experiment listed as %s made table %s", e.ID, tb.ID)
		}
		if seen[tb.ID] {
			t.Errorf("duplicate experiment id %s", tb.ID)
		}
		seen[tb.ID] = true
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Cols) {
				t.Errorf("%s: row width %d vs %d cols", tb.ID, len(row), len(tb.Cols))
			}
			for _, cell := range row {
				if cell == "false" {
					t.Errorf("%s: a correctness cell is false: %v", tb.ID, row)
				}
			}
		}
	}
	for _, id := range []string{"E1", "E4", "E5", "E7", "E8", "E9", "E10", "E12", "E13", "E14", "E15", "E16", "E17"} {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}

	golden.Check(t, "testdata/quick-seeds2.txt", out.Bytes())
}
