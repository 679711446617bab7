// Package load is the workload-generation subsystem: open- and closed-loop
// load against the serving engine (internal/serve) through the execution
// layer (internal/exec), described declaratively as Scenarios and measured
// with allocation-free log-bucketed latency histograms.
//
// The paper's headline claim is adaptivity — step complexity scales with the
// actual contention k, not with n — and this package is the layer that can
// vary k over time and measure the response. Three pieces:
//
//   - Generators. Closed-loop workers (G goroutines, think time) measure
//     service time under self-limiting load; open-loop workers issue
//     operations at externally scheduled arrival times (steady, Poisson,
//     square-wave burst, linear ramp) and measure latency from the
//     *scheduled* arrival, so a stalled server queues arrivals behind the
//     stall and the stall shows up in the tail — the standard defense
//     against coordinated omission. Churn scenarios launch k-process
//     execution waves whose k follows a triangle wave, so the live
//     contention k(t) the algorithms see keeps changing — the adaptive
//     regime the paper is about.
//   - Scenarios. A Scenario composes an arrival process, an operation mix
//     (rename via pool checkout, inc/read of the shared phased counter,
//     k-process execution waves), a duration and op budget, and an
//     optional exec.FaultPlan (crash storms mid-load). Catalog() holds the
//     curated set. Per-worker rng.Derived streams make a scenario's
//     operation choices deterministic per (seed, worker); on the simulator
//     runtime a scenario replays bit-identically per seed.
//   - Measurement. Hist (this file) is a fixed-size log-bucketed histogram
//     in the HDR spirit: recording is a few shifts and one counter
//     increment, no locks, no allocation. Each worker owns its own
//     histograms (one per scenario phase); they are merged once at stop.
//
// cmd/renameload is the CLI front end; the facade exposes Scenario,
// RunScenario, and LoadReport.
package load

import "math/bits"

// Hist is an allocation-free log-bucketed histogram of uint64 samples
// (latency in nanoseconds on the native runtime, step counts on the
// simulator). Values 0..31 are exact; larger values land in one of 32
// linear sub-buckets of their power-of-two range, so the relative
// quantization error is bounded by 1/32 ≈ 3.1% of the value. The fixed
// [64][32] layout covers the full uint64 range with zero heap allocation:
// a Hist embeds directly in per-worker state, Record touches one counter,
// and shards merge by addition at stop time.
//
// A Hist is not safe for concurrent use; give each worker its own shard
// and Merge them after the workers have stopped (hist_test.go pins both
// the quantile error bound and the sharded-merge pattern under -race).
type Hist struct {
	counts [64][32]uint64
	n      uint64
	sum    uint64
	max    uint64
}

// bucket returns the (major, sub) bucket indices for v.
func bucket(v uint64) (int, int) {
	if v < 32 {
		return 0, int(v)
	}
	msb := bits.Len64(v) - 1 // ≥ 5
	return msb - 4, int(v>>(msb-5)) & 31
}

// bucketValue returns the representative value of bucket (major, sub): the
// bucket midpoint (exact for the first bucket row). The representative is
// always inside the bucket, so it is within one bucket width of every
// sample the bucket holds.
func bucketValue(major, sub int) uint64 {
	if major == 0 {
		return uint64(sub)
	}
	msb := major + 4
	lo := uint64(32+sub) << (msb - 5)
	return lo + 1<<(msb-5)/2
}

// Record adds one sample. It performs no allocation and takes no locks.
func (h *Hist) Record(v uint64) {
	maj, sub := bucket(v)
	h.counts[maj][sub]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// RecordN adds n samples of value v (none when n is 0), as n Records
// would, in one update.
func (h *Hist) RecordN(v, n uint64) {
	if n == 0 {
		return
	}
	maj, sub := bucket(v)
	h.counts[maj][sub] += n
	h.n += n
	h.sum += v * n
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n }

// Sum returns the sum of all recorded samples.
func (h *Hist) Sum() uint64 { return h.sum }

// Max returns the largest recorded sample exactly (not bucket-quantized).
func (h *Hist) Max() uint64 { return h.max }

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as the representative value
// of the bucket holding the rank-⌈q·n⌉ sample; the result is within one
// bucket's relative error (≤ 1/32 of the value) of the exact order
// statistic. Quantile(1) returns the exact maximum.
func (h *Hist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for maj := 0; maj < 64; maj++ {
		for sub := 0; sub < 32; sub++ {
			c := h.counts[maj][sub]
			if c == 0 {
				continue
			}
			seen += c
			if seen > rank {
				v := bucketValue(maj, sub)
				if v > h.max {
					v = h.max // the top bucket's midpoint can overshoot the true max
				}
				return v
			}
		}
	}
	return h.max
}

// Buckets calls fn once per power-of-two upper bound le (32, 64, 128, …)
// with the cumulative count of samples strictly below le, skipping leading
// bounds with nothing under them and stopping at the first bound covering
// every sample — the Prometheus-style cumulative `_bucket{le=...}`
// surface. Power-of-two bounds align exactly with major-bucket edges, so
// the counts carry no bucket quantization (the < vs ≤ boundary difference
// is one representable value, far below the histogram's 1/32 relative
// error).
func (h *Hist) Buckets(fn func(le uint64, cum uint64)) {
	if h.n == 0 {
		return
	}
	var cum uint64
	for maj := 0; maj < 63; maj++ {
		var row uint64
		for sub := 0; sub < 32; sub++ {
			row += h.counts[maj][sub]
		}
		cum += row
		// Major row 0 holds values 0..31 exactly (≤ 2^5); row m ≥ 1 holds
		// values < 2^(m+5), so its upper bound is 2^(m+5)-1 ≤ le 2^(m+5).
		le := uint64(1) << (maj + 5)
		if cum == 0 {
			continue // nothing recorded this low yet
		}
		fn(le, cum)
		if cum == h.n {
			return // every sample covered; higher bounds add nothing
		}
	}
	fn(1<<63, h.n) // top row: everything fits below 2^63 or lands here
}

// Merge adds o's samples into h. Only call it after both histograms'
// writers have stopped.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		// Merging an empty shard is free — periodic folds of per-opcode
		// shard arrays mostly merge empties, and a 16KiB scan each would
		// dominate the fold.
		return
	}
	for maj := 0; maj < 64; maj++ {
		for sub := 0; sub < 32; sub++ {
			h.counts[maj][sub] += o.counts[maj][sub]
		}
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset clears the histogram in place.
func (h *Hist) Reset() {
	if h.n == 0 {
		return // already clear: n is incremented by every Record
	}
	*h = Hist{}
}
