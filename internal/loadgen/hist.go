// Package loadgen is the workload-scale soak substrate (DESIGN.md §10):
// a seeded, deterministic workload generator over the demo federation, an
// HDR-style latency histogram, and a socket-level client driver that
// pushes the generated schedule against one or more discod servers while
// recording per-request latency, shedding, partial answers and oracle
// samples. cmd/discoload is the CLI over this package; the ci-soak gate
// and BenchmarkSoakServing run it in-process.
package loadgen

import (
	"math"
	"math/bits"
)

// Histogram geometry: values are recorded in microseconds into log-linear
// buckets — 2^subBits linear sub-buckets per power of two, the HDR
// histogram layout. Quantiles are read back with a worst-case relative
// error of 1/2^subBits (~3 %), which is far below run-to-run latency
// noise, while the whole histogram stays a fixed 2 KiB array: recording
// is one increment, merging is one vector add, and neither allocates —
// thousands of clients can each keep a private histogram.
const (
	subBits  = 5
	subCount = 1 << subBits // linear region and sub-buckets per octave
	// maxBucket covers every int64 microsecond value (63 octaves).
	maxBucket = (64 - subBits) * subCount
)

// Histogram is an HDR-style log-linear latency histogram counting
// microsecond values. The zero value is ready to use. Not safe for
// concurrent use: each client records into its own and the driver merges
// them afterwards.
type Histogram struct {
	counts [maxBucket]int64
	total  int64
	sum    int64 // exact sum of recorded values, for Mean
	min    int64
	max    int64
}

// bucketOf maps a value to its bucket index: identity in the linear
// region [0, subCount), then subCount buckets per octave.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - subBits // doublings past the linear region
	mant := v >> uint(exp)                     // in [subCount, 2*subCount)
	return exp*subCount + int(mant)
}

// bucketHigh is the largest value a bucket holds — the value a quantile
// read reports, so reads never under-state a latency. Computed in uint64:
// the top bucket's bound is (64 << 57) - 1 = MaxInt64, which would wrap
// in int64 arithmetic.
func bucketHigh(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	exp := uint(idx/subCount - 1)
	mant := uint64(idx%subCount + subCount)
	return int64((mant+1)<<exp - 1)
}

// RecordMicros records one latency observation in microseconds.
func (h *Histogram) RecordMicros(us int64) {
	if us < 0 {
		us = 0
	}
	h.counts[bucketOf(us)]++
	h.sum += us
	if h.total == 0 || us < h.min {
		h.min = us
	}
	if us > h.max {
		h.max = us
	}
	h.total++
}

// Merge adds another histogram's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.sum += o.sum
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
}

// MaxMicros reports the largest recorded value (0 when empty).
func (h *Histogram) MaxMicros() int64 { return h.max }

// MeanMicros reports the exact mean of the recorded values.
func (h *Histogram) MeanMicros() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// QuantileMicros reports the value at quantile q in [0,1]: the upper
// bound of the bucket holding the ceil(q*count)-th observation. The exact
// minimum and maximum are substituted at the extremes so q=0 and q=1 are
// error-free.
func (h *Histogram) QuantileMicros(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			hi := bucketHigh(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// QuantileMS is QuantileMicros in milliseconds.
func (h *Histogram) QuantileMS(q float64) float64 {
	return float64(h.QuantileMicros(q)) / 1000
}
