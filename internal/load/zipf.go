package load

import (
	"math"

	"repro/internal/rng"
)

// zipf samples target ids in [0, n) with P(i) ∝ 1/(i+1)^theta — the
// skewed-popularity distribution of YCSB-style workloads, where a few hot
// targets absorb most of the traffic. Sampling is exact inverse-CDF over a
// cumulative table built once per run and shared read-only across workers
// (the target universes here are small, so a table beats the YCSB
// closed-form approximation and its 0 < theta < 1 restriction); the
// per-draw path is one uniform variate plus a binary search, allocation
// free.
type zipf struct {
	cum []float64 // cum[i] = P(target ≤ i); cum[n-1] = 1
}

func newZipf(n int, theta float64) *zipf {
	if n < 1 {
		n = 1
	}
	cum := make([]float64, n)
	var total float64
	for i := range cum {
		total += math.Pow(float64(i+1), -theta)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipf{cum: cum}
}

// draw maps one uniform variate from r to a target id.
func (z *zipf) draw(r *rng.SplitMix64) uint64 {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint64(lo)
}

// target returns the op's key. Under skew it is the op's Zipf target,
// drawn from the worker's op stream, and keyed is true. Waves have no
// single target (k processes run against one checked-out instance) and
// get key 0. Skew-free per-op kinds get a key derived from the worker and
// its op count, with keyed false; it spreads their ops over pool shards,
// in process and on a server, and over ring nodes. Neither case draws
// from the op stream, so skew-free op streams are bit-identical to the
// pre-skew harness.
func (w *worker) target(kind opKind) (key uint64, keyed bool) {
	switch {
	case kind == opWave:
		return 0, false
	case w.z == nil:
		return uint64(w.id)<<32 | w.count, false
	}
	return w.z.draw(&w.gen), true
}
