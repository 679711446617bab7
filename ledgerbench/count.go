package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/load"
	"repro/internal/netserve"
	"repro/internal/wire"
)

// lapSlices is how many equal slices a lap is cut into. Every run holds
// whole laps, so each part of the count range is equally represented in
// the slices the end-to-end metrics are averaged over.
const lapSlices = 6

// countReadProbe is how many reads measure a read's own allocation, so
// that phase.inc_alloc_b charges the increments alone.
const countReadProbe = 4096

// countLoop is the wire-count closed loop on s with slots requests in
// flight: request n holds PhasedRead where masks[n] has a bit and
// PhasedInc elsewhere. *incs counts the increments sent so far on the
// connection; each read must return exactly the increments sent before it.
func countLoop(s *single, masks []uint64, incs *uint64, slots int) *loop {
	batches := make([]*netserve.Batch, slots)
	reqs := make([]request, slots)
	base := make([]uint64, slots)
	for i := range batches {
		batches[i] = s.cli.NewBatch()
		reqs[i] = batches[i]
	}
	return &loop{
		slots: reqs,
		layer: "netserve",
		fill: func(sl int, n int64) {
			b := batches[sl].Reset()
			m := masks[n]
			base[sl] = *incs
			for j := 0; j < batchOps; j++ {
				if m>>j&1 == 1 {
					b.PhasedRead()
				} else {
					b.PhasedInc()
				}
			}
			*incs += incsPerBatch
		},
		check: func(w *window, sl int, n int64, vals []uint64, err error) {
			w.attempted += batchOps
			if len(vals) != batchOps {
				w.failed += batchOps
				return
			}
			m := masks[n]
			c := base[sl]
			for j, v := range vals {
				if m>>j&1 == 0 {
					c++
				} else if v != c {
					w.failed++
					continue
				}
				w.ops++
			}
		},
	}
}

// strictCheck issues the final PhasedReadStrict, which must equal want.
func strictCheck(w *window, cli *netserve.Client, want uint64) {
	vals, err := cli.NewBatch().PhasedReadStrict().Commit()
	w.attempted++
	if err != nil || len(vals) != 1 || vals[0] != want {
		w.failed++
	}
}

// startCount is one wire-count set-up: a fresh target and server, one
// connection, and the fixed warm-up. It returns the increments sent.
func startCount(w *window, in *inputs, pipe, traced bool) (*single, uint64, error) {
	s, err := startSingle(load.NewTarget(1), pipe)
	if err != nil {
		return nil, 0, err
	}
	if traced {
		s.trace()
	}
	var incs uint64
	warm := &window{}
	countLoop(s, in.masks[:countWarmup], &incs, inFlight).run(warm, func(n int64) bool { return n < countWarmup }, nil)
	w.merge(warm)
	return s, incs, nil
}

func measureCount(in *inputs, d time.Duration, tr *tracer) (*window, error) {
	w := newWindow()
	w.sliceReqs = lapBatches / lapSlices
	lap := in.masks[countWarmup:]
	for r := 0; r < setupRounds-1; r++ {
		t0 := time.Now()
		s, _, err := startCount(w, in, false, tr != nil)
		if err != nil {
			return nil, err
		}
		w.setups = append(w.setups, time.Since(t0))
		s.close()
		runtime.GC()
	}
	var switches uint64
	var stages load.Stages
	var gcCycles, gcPauseNS uint64
	for laps := 0; laps == 0 || w.elapsed < d; laps++ {
		// Start every lap from a collected heap returned to the OS: each
		// lap's peak is its own counter's growth, not the last lap's
		// garbage, and every lap pays the same page faults.
		debug.FreeOSMemory()
		t0 := time.Now()
		s, incs, err := startCount(w, in, false, tr != nil)
		if err != nil {
			return nil, err
		}
		w.setups = append(w.setups, time.Since(t0))

		st0 := s.cli.Stages()
		gc0 := readGC()
		start := time.Now()
		w.begin(start)
		countLoop(s, lap, &incs, inFlight).run(w, func(n int64) bool { return n < lapBatches }, tr)
		end := time.Now()
		w.elapsed += end.Sub(start)
		gc1 := readGC()
		gcCycles += gc1.cycles - gc0.cycles
		gcPauseNS += gc1.pauseNS - gc0.pauseNS

		strictCheck(w, s.cli, incs)
		switches += s.tg.Phased.Stats().Switches
		stages = addStages(stages, s.cli.Stages().Sub(st0))
		s.close()
	}
	if switches != 0 {
		return nil, fmt.Errorf("the phase controller switched mode %d times: the run is bimodal", switches)
	}
	w.layers = map[string]metric{"phase.mode_switches": {float64(switches), "count"}}
	if tr != nil {
		for k, v := range (gcSnap{gcCycles, gcPauseNS}).since(gcSnap{}, w.ops) {
			w.layers[k] = v
		}
		for k, v := range stageMetrics(stages) {
			w.layers[k] = v
		}
	}
	return w, nil
}

func addStages(a, b load.Stages) load.Stages {
	return load.Stages{
		Frames:  a.Frames + b.Frames,
		RTTNS:   a.RTTNS + b.RTTNS,
		SrvNS:   a.SrvNS + b.SrvNS,
		AdmitNS: a.AdmitNS + b.AdmitNS,
		ExecNS:  a.ExecNS + b.ExecNS,
	}
}

// countLedgerSegment is how many requests one ledger segment runs through
// one layer before the next layer takes over.
const countLedgerSegment = 32

// countStack replays one lap's op order through the count path: the phase
// pool in-process (each op timed on its own), the codec, and netserve
// servers on net.Pipe and on loopback TCP with one request in flight. The
// three ways in share one target and take turns in short segments, so
// each samples the whole count range of a lap and the same moments of the
// shared machine.
func countStack(in *inputs, run *ledgerRun) (*stack, error) {
	lap := in.masks[countWarmup:]
	var bad int64

	// Like a lap, the pass starts from a heap returned to the OS.
	debug.FreeOSMemory()
	tg := load.NewTarget(1)
	p := tg.Phased
	pipe, err := startSingle(tg, true)
	if err != nil {
		return nil, err
	}
	defer pipe.close()
	tcp, err := startSingle(tg, false)
	if err != nil {
		return nil, err
	}
	defer tcp.close()

	var count uint64
	for _, m := range in.masks[:countWarmup] {
		for j := 0; j < batchOps; j++ {
			if m>>j&1 == 1 {
				if p.Read() != count {
					bad++
				}
			} else {
				p.Inc()
				count++
			}
		}
	}
	clock := clockCost()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	// Layer 0 is the phase pool in-process, 1 the pipe server, 2 the TCP
	// server.
	var dur [3]time.Duration
	var ops, mallocs [3]int64
	var tInc, tRead time.Duration
	var nInc, nRead int64
	var incBytes uint64
	w := &window{}
	var m0, m1 runtime.MemStats
	for seg := 0; seg*countLedgerSegment < len(lap); seg++ {
		lo := seg * countLedgerSegment
		hi := min(lo+countLedgerSegment, len(lap))
		layer := seg % 3
		var lp *loop
		switch layer {
		case 1:
			lp = countLoop(pipe, lap[lo:hi], &count, 1)
		case 2:
			lp = countLoop(tcp, lap[lo:hi], &count, 1)
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if layer == 0 {
			prev := t0
			for _, m := range lap[lo:hi] {
				for j := 0; j < batchOps; j++ {
					if m>>j&1 == 1 {
						if p.Read() != count {
							bad++
						}
						now := time.Now()
						tRead += now.Sub(prev)
						nRead++
						prev = now
					} else {
						p.Inc()
						count++
						now := time.Now()
						tInc += now.Sub(prev)
						nInc++
						prev = now
					}
				}
			}
		} else {
			lp.run(w, func(n int64) bool { return n < int64(hi-lo) }, nil)
		}
		dur[layer] += time.Since(t0)
		runtime.ReadMemStats(&m1)
		ops[layer] += int64((hi - lo) * batchOps)
		mallocs[layer] += int64(m1.Mallocs - m0.Mallocs)
		if layer == 0 {
			incBytes += m1.TotalAlloc - m0.TotalAlloc
		}
	}
	strictCheck(w, pipe.cli, count)
	run.acct.merge(w)

	// A read's own allocation, so phase.inc_alloc_b charges increments alone.
	runtime.ReadMemStats(&m0)
	for i := 0; i < countReadProbe; i++ {
		if p.Read() != count {
			bad++
		}
	}
	runtime.ReadMemStats(&m1)
	readAlloc := float64(m1.TotalAlloc-m0.TotalAlloc) / countReadProbe
	runtime.GC()
	runtime.ReadMemStats(&m1)
	live := float64(m1.HeapAlloc) - float64(base.HeapAlloc)
	if switches := p.Stats().Switches; switches != 0 {
		return nil, fmt.Errorf("the phase controller switched mode %d times: the ledger pass is bimodal", switches)
	}
	run.acct.attempted += ops[0] + countReadProbe

	// The codec, over the lap's first requests (frame size does not depend
	// on the count).
	codecReqs := countRequests(lap[:min(len(lap), 1024)])
	var frameBytes int64
	codec := codecPass(codecReqs, countReply, &frameBytes, &bad)
	codecNS, codecAllocs := pass(int64(len(codecReqs)*batchOps), codec)
	run.acct.attempted += int64(len(codecReqs) * batchOps)
	run.acct.failed += bad

	if want := uint64(countWarmup+len(lap)) * incsPerBatch; count != want {
		return nil, fmt.Errorf("count ledger counted %d increments, want %d", count, want)
	}
	perOp := func(l int) (float64, float64) {
		return float64(dur[l]) / float64(ops[l]), float64(mallocs[l]) / float64(ops[l])
	}
	// Each in-process op's time includes one clock read; take it out.
	phaseNS := float64(tInc+tRead)/float64(nInc+nRead) - clock
	_, phaseAllocs := perOp(0)
	pp, app := perOp(1)
	lb, alb := perOp(2)
	st := &stack{
		name: "wire-count",
		unit: "count op (3 PhasedInc : 1 PhasedRead)",
		rows: []row{
			{"phase (Pool.Inc / Pool.Read in-process)", phaseNS, phaseAllocs, phaseNS},
			{"wire.codec (+encode/decode both ways)", phaseNS + codecNS, phaseAllocs + codecAllocs, codecNS},
			{"netserve.pipe (Batch.Commit on net.Pipe)", pp, app, pp - phaseNS - codecNS},
			{"netserve.loopback (Batch.Commit on TCP)", lb, alb, lb - pp},
		},
		metrics: map[string]metric{
			"phase.inc_ns":                {float64(tInc)/float64(nInc) - clock, "ns"},
			"phase.read_ns":               {float64(tRead)/float64(nRead) - clock, "ns"},
			"phase.inc_alloc_b":           {(float64(incBytes) - readAlloc*float64(nRead)) / float64(nInc), "B"},
			"phase.live_b_per_inc":        {live / float64(count-countWarmup*incsPerBatch), "B"},
			"phase.mode_switches":         {0, "count"},
			"wire.codec_ns_per_op":        {codecNS, "ns"},
			"wire.bytes_per_op":           {float64(frameBytes) / float64(len(codecReqs)*batchOps), "B"},
			"netserve.pipe_ns_per_op":     {pp - phaseNS - codecNS, "ns"},
			"netserve.loopback_ns_per_op": {lb - pp, "ns"},
		},
	}
	return st, nil
}

// clockCost is the median cost of one time.Now, which every op timed on
// its own pays once.
func clockCost() float64 {
	const n = 1 << 14
	var costs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Now()
		}
		costs = append(costs, float64(time.Since(t0))/n)
	}
	return medianF(costs)
}

// countRequests spells out the count requests' ops for the codec pass.
func countRequests(masks []uint64) [][]wire.Op {
	reqs := make([][]wire.Op, len(masks))
	for i, m := range masks {
		for j := 0; j < batchOps; j++ {
			code := wire.OpPhasedInc
			if m>>j&1 == 1 {
				code = wire.OpPhasedRead
			}
			reqs[i] = append(reqs[i], wire.Op{Code: code})
		}
	}
	return reqs
}

// countReply is a served reply value: 0 for an increment, a lap-sized
// count for a read.
func countReply(op wire.Op) uint64 {
	if op.Code == wire.OpPhasedRead {
		return lapIncs
	}
	return 0
}
