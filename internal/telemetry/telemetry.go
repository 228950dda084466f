// Package telemetry provides allocation-free process metrics — atomic
// counters, gauges, and fixed-bucket log₂ histograms — plus a registry
// that renders Prometheus text exposition format v0.0.4 with no external
// dependencies.
//
// The primitives are built for unconditional use on the hot path: Inc,
// Add, Set, and Observe are one or two uncontended atomic RMW ops
// (~1-2 ns) and never allocate. Telemetry is observational only — it
// must never touch RNG state, iteration order, or float accumulation,
// so enabling it cannot perturb bitwise-deterministic trajectories.
package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Callers pass differences of monotone values, such as
// EngineSnapshot.Publish's snapshot deltas, so n never wraps, also
// across a mid-run placement rebuild.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an int64 metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of every Histogram: finite
// upper bounds 2^0 .. 2^(histBuckets-2), plus +Inf. With 40 buckets the
// largest finite bound is 2^38 ns ≈ 4.6 min — comfortably above any
// per-iteration phase time — while dirty-batch and cone-size counts
// reuse the same log₂ layout.
const histBuckets = 40

// Histogram is a fixed-bucket log₂ histogram of non-negative int64
// samples (typically nanoseconds or element counts). A sample v lands
// in the bucket whose upper bound is the smallest power of two >= v
// (v=0 and v=1 both fall under le=1). Observe is two atomic adds and
// never allocates.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Int64
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// bucketIndex maps a non-negative sample to the bucket whose upper
// bound 2^i is the smallest power of two >= v: bits.Len64(v-1) is exact
// on power-of-two boundaries (v=2 falls under le=2, not le=4).
func bucketIndex(v int64) int {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v - 1))
	}
	if i > histBuckets-1 {
		i = histBuckets - 1
	}
	return i
}

// ObserveN records n identical samples of value v in two atomic adds —
// used to fold a locally accumulated batch into the histogram without
// per-event atomics.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(n)
	h.sum.Add(v * int64(n))
}

// snapshot copies the bucket counts, total count, and sum. The copy is
// not an atomic cut across buckets — fine for monitoring, where each
// individual bucket is still monotone.
func (h *Histogram) snapshot() (counts [histBuckets]uint64, total uint64, sum int64) {
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	return counts, total, h.sum.Load()
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	_, total, _ := h.snapshot()
	return total
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }
