package load

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// PhaseReport is one phase row of a Report: the latency distribution and
// rate accounting of one phase class of the arrival profile (e.g. the
// merged "low" or "high" halves of a burst scenario). Latency unit is
// nanoseconds on the native runtime and shared-memory steps on the
// simulator (Report.Unit).
type PhaseReport struct {
	Phase string `json:"phase"`
	Ops   uint64 `json:"ops"`
	// OfferedOpsSec is the configured rate of the phase (0 for closed-loop
	// and simulator runs, which have no offered rate).
	OfferedOpsSec float64 `json:"offered_ops_sec,omitempty"`
	// AchievedOpsSec is the measured completion rate over the phase's wall
	// time (native runs only; a wall-clock field).
	AchievedOpsSec float64 `json:"achieved_ops_sec,omitempty"`
	P50            uint64  `json:"p50"`
	P90            uint64  `json:"p90"`
	P99            uint64  `json:"p99"`
	P999           uint64  `json:"p999"`
	Max            uint64  `json:"max"`
	Mean           float64 `json:"mean"`
	// MaxLateNs is the worst scheduling lateness of the run: how far
	// behind its scheduled arrival an operation actually started (native
	// open-loop only). Latency is measured from the scheduled arrival, so
	// lateness is already inside the quantiles; this reports it
	// separately. Lateness is tracked per worker, not per phase, so only
	// the "total" row carries it.
	MaxLateNs uint64 `json:"max_late_ns,omitempty"`
	// KPeak and KMean summarize the sampled live contention during the
	// phase: in-flight pool operations plus running wave processes.
	KPeak int     `json:"k_peak,omitempty"`
	KMean float64 `json:"k_mean,omitempty"`
}

// Report is the result of one scenario run, serializable to JSON. On the
// simulator runtime every field except ElapsedSec is deterministic per
// (seed, scenario): two runs marshal to identical bytes modulo that one
// wall-clock field (Stable zeroes it; the determinism test pins this).
type Report struct {
	Scenario string `json:"scenario"`
	Runtime  string `json:"runtime"` // "native" or "sim"
	// Transport is set when the run went over a remote transport ("wire",
	// "cluster"); empty for in-process runs. RemoteErrs counts remote
	// operations that failed hard (any nonzero count fails the verdict).
	// Sheds counts operations the server's admission control refused
	// (retryable by contract; they do NOT fail the verdict — a shed under
	// overload is the degradation mode working, and its fast typed failure
	// is what keeps the tail bounded).
	Transport  string `json:"transport,omitempty"`
	RemoteErrs uint64 `json:"remote_errs,omitempty"`
	Sheds      uint64 `json:"sheds,omitempty"`
	// Stages decomposes the run's traced round trips into per-stage
	// nanosecond sums (set only when the transport is a StageSource with
	// tracing armed; see Stages for the accounting identity).
	Stages  *Stages `json:"stages,omitempty"`
	Seed    uint64  `json:"seed"`
	Workers int     `json:"workers"`
	Arrival string  `json:"arrival"`
	// Unit is the latency unit of the quantile fields: "ns" (native) or
	// "steps" (simulator).
	Unit string `json:"unit"`
	// DurationSec is the configured duration (stable); ElapsedSec is the
	// measured wall time of the run (never stable, even on the simulator).
	DurationSec float64 `json:"duration_sec"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	Ops         uint64  `json:"ops"`
	// OpsByKind counts completed operations per mix kind, in Mix order.
	OpsByKind map[string]uint64 `json:"-"`
	// The same counts as fixed fields (maps would marshal fine — keys are
	// sorted — but fixed fields keep the schema explicit).
	Renames uint64 `json:"renames"`
	Incs    uint64 `json:"incs"`
	Reads   uint64 `json:"reads"`
	Waves   uint64 `json:"waves"`
	// Crashes counts fault-plan crashes that fired across all waves.
	Crashes uint64 `json:"crashes"`
	// FaultProcs is the number of crash entries in the armed plan (0 when
	// fault-free).
	FaultProcs int `json:"fault_procs,omitempty"`
	// OfferedOpsSec and AchievedOpsSec are the whole-run rates (native
	// open-loop; Achieved is a wall-clock field).
	OfferedOpsSec  float64 `json:"offered_ops_sec,omitempty"`
	AchievedOpsSec float64 `json:"achieved_ops_sec,omitempty"`
	// NameSum and Checksum fingerprint the run's results on the simulator:
	// NameSum adds every acquired name; Checksum folds names, read values,
	// crash sets, and per-op step counts order-sensitively. Two sim runs of
	// the same (seed, scenario) must produce identical values.
	NameSum  uint64 `json:"name_sum,omitempty"`
	Checksum uint64 `json:"checksum,omitempty"`
	// KPeak is the run-wide peak of the sampled live contention, floored
	// at the widest wave actually launched (the passive sampler can miss
	// waves that finish between ticks).
	KPeak  int           `json:"k_peak,omitempty"`
	Phases []PhaseReport `json:"phases"`
	Total  PhaseReport   `json:"total"`
	// Verdict is "ok" when the run's self-checks pass (operations
	// completed, quantiles monotone per phase, replay matched in sim
	// mode); otherwise it describes the first failure.
	Verdict string `json:"verdict"`
}

// finish fills the per-kind fields from OpsByKind and computes the verdict.
func (r *Report) finish() {
	r.Renames = r.OpsByKind[opNames[opRename]]
	r.Incs = r.OpsByKind[opNames[opInc]]
	r.Reads = r.OpsByKind[opNames[opRead]]
	r.Waves = r.OpsByKind[opNames[opWave]]
	r.Verdict = r.check()
}

// check runs the report's self-checks and returns "ok" or a description of
// the first failure.
func (r *Report) check() string {
	if r.Ops == 0 {
		return "suspect: no operations completed"
	}
	if r.RemoteErrs > 0 {
		return fmt.Sprintf("suspect: %d remote operations failed", r.RemoteErrs)
	}
	rows := append(append([]PhaseReport(nil), r.Phases...), r.Total)
	for _, ph := range rows {
		if ph.Ops == 0 {
			continue
		}
		if ph.P50 > ph.P90 || ph.P90 > ph.P99 || ph.P99 > ph.P999 || ph.P999 > ph.Max {
			return fmt.Sprintf("suspect: non-monotone quantiles in phase %q", ph.Phase)
		}
	}
	var phaseOps uint64
	for _, ph := range r.Phases {
		phaseOps += ph.Ops
	}
	if phaseOps != r.Ops {
		return fmt.Sprintf("suspect: phase op counts (%d) do not sum to total (%d)", phaseOps, r.Ops)
	}
	return "ok"
}

// Stable returns a copy with the wall-clock fields zeroed: on the
// simulator runtime the result is byte-identical across runs of the same
// (seed, scenario).
func (r *Report) Stable() *Report {
	cp := *r
	cp.ElapsedSec = 0
	cp.AchievedOpsSec = 0
	cp.Phases = append([]PhaseReport(nil), r.Phases...)
	for i := range cp.Phases {
		cp.Phases[i].AchievedOpsSec = 0
	}
	cp.Total.AchievedOpsSec = 0
	return &cp
}

// JSON marshals the report (indented, trailing newline).
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // fixed-shape struct; cannot fail
	}
	return append(b, '\n')
}

// Fprint renders the report as an aligned text table (the renameload and
// examples/loadtest output).
func (r *Report) Fprint(w io.Writer) {
	rt := r.Runtime
	if r.Transport != "" {
		rt += "/" + r.Transport
	}
	fmt.Fprintf(w, "scenario %s (%s, %s arrivals, %d workers, seed %d)\n",
		r.Scenario, rt, r.Arrival, r.Workers, r.Seed)
	fmt.Fprintf(w, "  %d ops in %.2fs", r.Ops, r.ElapsedSec)
	if r.OfferedOpsSec > 0 {
		fmt.Fprintf(w, " — offered %.0f ops/s, achieved %.0f ops/s", r.OfferedOpsSec, r.AchievedOpsSec)
	}
	if r.Sheds > 0 {
		fmt.Fprintf(w, "; %d shed", r.Sheds)
	}
	if r.Waves > 0 {
		fmt.Fprintf(w, "; %d waves, %d crashes", r.Waves, r.Crashes)
	}
	if r.KPeak > 0 {
		fmt.Fprintf(w, "; peak live k %d", r.KPeak)
	}
	fmt.Fprintf(w, "\n")

	unit := r.Unit
	cols := []string{"phase", "ops", "offered/s", "achieved/s",
		"p50(" + unit + ")", "p90(" + unit + ")", "p99(" + unit + ")", "p999(" + unit + ")", "max(" + unit + ")", "late-max"}
	rows := [][]string{}
	add := func(ph PhaseReport) {
		rows = append(rows, []string{
			ph.Phase, fmt.Sprintf("%d", ph.Ops),
			rate(ph.OfferedOpsSec), rate(ph.AchievedOpsSec),
			fmt.Sprintf("%d", ph.P50), fmt.Sprintf("%d", ph.P90),
			fmt.Sprintf("%d", ph.P99), fmt.Sprintf("%d", ph.P999),
			fmt.Sprintf("%d", ph.Max),
			lateStr(ph.MaxLateNs),
		})
	}
	for _, ph := range r.Phases {
		add(ph)
	}
	add(r.Total)

	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		b.WriteString("  ")
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		fmt.Fprintln(w, b.String())
	}
	line(cols)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	if st := r.Stages; st != nil && st.Frames > 0 {
		mean := func(ns uint64) float64 { return float64(ns) / float64(st.Frames) / 1e3 }
		fmt.Fprintf(w, "  stages (mean/frame over %d traced frames): rtt %.1fµs = srv %.1fµs (admit %.1f + exec %.1f + queue %.1f) + net/client %.1fµs\n",
			st.Frames, mean(st.RTTNS), mean(st.SrvNS), mean(st.AdmitNS), mean(st.ExecNS), mean(st.QueueNS()), mean(st.ReplyNS()))
	}
	fmt.Fprintf(w, "  verdict: %s\n", r.Verdict)
}

func rate(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

func lateStr(ns uint64) string {
	if ns == 0 {
		return "-"
	}
	return fmt.Sprintf("%dns", ns)
}
