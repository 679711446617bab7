// Command renamebench regenerates the experiment tables (E1–E17, see
// BENCHMARKS.md): each table reproduces a claim of "Optimal-Time Adaptive
// Strong Renaming, with Applications to Counting" (PODC 2011) on the
// deterministic simulator.
//
// Usage:
//
//	renamebench [-quick] [-seeds N] [-table E8] [-markdown | -csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "shrink parameter sweeps for a fast smoke run")
	seeds := flag.Int("seeds", 10, "independent runs per parameter point")
	table := flag.String("table", "", "run only the experiment with this ID (e.g. E8)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown")
	csv := flag.Bool("csv", false, "emit CSV series for external plotting")
	flag.Parse()

	cfg := bench.Config{Seeds: *seeds, Quick: *quick}
	exps := bench.Experiments()
	matched := false
	for _, e := range exps {
		if *table != "" && !strings.EqualFold(e.ID, *table) {
			continue
		}
		matched = true
		t := e.Run(cfg)
		switch {
		case *csv:
			t.CSV(os.Stdout)
		case *markdown:
			t.Markdown(os.Stdout)
		default:
			t.Fprint(os.Stdout)
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "renamebench: no experiment with ID %q; available:", *table)
		for _, e := range exps {
			fmt.Fprintf(os.Stderr, " %s", e.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
}
