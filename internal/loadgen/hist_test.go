package loadgen

import (
	"math"
	"math/rand"
	"testing"
)

// TestHistogramBucketsAreContinuous pins the log-linear geometry: bucket
// indices are monotone in the value, every value maps inside the table,
// and a bucket's upper bound is never below a value it holds.
func TestHistogramBucketsAreContinuous(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		idx := bucketOf(v)
		if idx < 0 || idx >= maxBucket {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		if idx < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d: not monotone", v, idx, prev)
		}
		if hi := bucketHigh(idx); hi < v {
			t.Errorf("bucketHigh(%d) = %d < %d: quantiles would under-report", idx, hi, v)
		}
		prev = idx
	}
	// The linear region is exact.
	for v := int64(0); v < subCount; v++ {
		if bucketOf(v) != int(v) || bucketHigh(int(v)) != v {
			t.Fatalf("linear region broken at %d", v)
		}
	}
}

// TestHistogramQuantiles checks quantile reads against an exactly known
// distribution within the structural 1/32 relative error bound.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 10000; v++ {
		h.RecordMicros(v)
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5000}, {0.9, 9000}, {0.99, 9900}, {0.999, 9990}, {1, 10000},
	} {
		got := float64(h.QuantileMicros(tc.q))
		if relErr := math.Abs(got-tc.want) / tc.want; relErr > 1.0/subCount {
			t.Errorf("q%.3f = %.0f, want %.0f ± %.1f%%", tc.q, got, tc.want, 100.0/subCount)
		}
		if got < tc.want {
			t.Errorf("q%.3f = %.0f under-reports %.0f", tc.q, got, tc.want)
		}
	}
	if mean := h.MeanMicros(); math.Abs(mean-5000.5) > 1e-9 {
		t.Errorf("mean = %g, want exactly 5000.5", mean)
	}
	if h.MaxMicros() != 10000 {
		t.Errorf("max = %d", h.MaxMicros())
	}
}

// TestHistogramMergeEquivalence pins Merge: recording a stream split
// across two histograms and merging equals recording it into one.
func TestHistogramMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var whole, a, b Histogram
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 22))
		whole.RecordMicros(v)
		if i%2 == 0 {
			a.RecordMicros(v)
		} else {
			b.RecordMicros(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.MaxMicros() != whole.MaxMicros() || a.MeanMicros() != whole.MeanMicros() {
		t.Fatalf("merge diverged: count %d/%d max %d/%d", a.Count(), whole.Count(), a.MaxMicros(), whole.MaxMicros())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if a.QuantileMicros(q) != whole.QuantileMicros(q) {
			t.Errorf("q%.3f: merged %d != whole %d", q, a.QuantileMicros(q), whole.QuantileMicros(q))
		}
	}
}

// TestHistogramEmpty pins the zero-value behaviour.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.QuantileMicros(0.99) != 0 || h.MeanMicros() != 0 || h.MaxMicros() != 0 {
		t.Error("empty histogram must read as all zeros")
	}
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }
