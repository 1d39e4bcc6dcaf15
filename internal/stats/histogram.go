package stats

import (
	"fmt"
	"sort"
	"strings"

	"disco/internal/types"
)

// Bucket is one histogram bucket covering values in [Lo, Hi) — the final
// bucket is closed on both ends. Count is the number of objects falling in
// the bucket and Distinct the number of distinct values observed.
type Bucket struct {
	Lo, Hi   types.Constant
	Count    int64
	Distinct int64
}

// Histogram is a one-dimensional frequency histogram over an attribute.
// Buckets are ordered and non-overlapping. Selectivity estimation only
// relies on the bucket invariants, not on how the histogram was built
// (NewEquiDepth, or a wrapper's own export).
type Histogram struct {
	Buckets []Bucket
	Total   int64
}

// NewEquiDepth builds a histogram whose buckets hold (approximately) equal
// object counts, the construction [PIHS96] recommends for range-predicate
// accuracy on skewed data. Returns nil for empty input.
func NewEquiDepth(values []types.Constant, buckets int) *Histogram {
	if len(values) == 0 || buckets < 1 {
		return nil
	}
	sorted := make([]float64, len(values))
	for i, v := range values {
		sorted[i] = v.AsFloat()
	}
	sort.Float64s(sorted)
	if buckets > len(sorted) {
		buckets = len(sorted)
	}
	per := len(sorted) / buckets
	rem := len(sorted) % buckets
	h := &Histogram{Total: int64(len(sorted))}
	start := 0
	for b := 0; b < buckets; b++ {
		n := per
		if b < rem {
			n++
		}
		end := start + n
		if end > len(sorted) {
			end = len(sorted)
		}
		if start >= end {
			break
		}
		seg := sorted[start:end]
		dist := int64(1)
		for i := 1; i < len(seg); i++ {
			if seg[i] != seg[i-1] {
				dist++
			}
		}
		hi := seg[len(seg)-1]
		if b < buckets-1 && end < len(sorted) {
			hi = sorted[end] // half-open upper bound is the next value
		}
		h.Buckets = append(h.Buckets, Bucket{
			Lo:       types.Float(seg[0]),
			Hi:       types.Float(hi),
			Count:    int64(len(seg)),
			Distinct: dist,
		})
		start = end
	}
	return h
}

// Selectivity estimates the fraction of objects satisfying `op value`
// against the histogram. Within a bucket a uniform distribution is
// assumed; equality predicates use the bucket's distinct count.
func (h *Histogram) Selectivity(op CmpOp, value types.Constant) float64 {
	if h == nil || h.Total == 0 || len(h.Buckets) == 0 {
		return 0.1
	}
	switch op {
	case CmpEQ:
		for _, b := range h.Buckets {
			if h.inBucket(b, value) {
				if b.Distinct <= 0 {
					return h.eqFloor()
				}
				return clamp01(float64(b.Count) / float64(b.Distinct) / float64(h.Total))
			}
		}
		return h.eqFloor()
	case CmpNE:
		return clamp01(1 - h.Selectivity(CmpEQ, value))
	case CmpLT, CmpLE:
		return clamp01(h.cumulativeBelow(value))
	case CmpGT, CmpGE:
		return clamp01(1 - h.cumulativeBelow(value))
	default:
		return 1.0 / 3.0
	}
}

// eqFloor is the selectivity floor for an equality probe that misses
// every bucket or lands in a degenerate (zero-distinct) one. A hard zero
// here zeroes out the cardinality of every operator above the selection,
// collapsing all plans containing it to the same cost and hiding real
// join work from the optimizer. The floor is 1/Total — the selectivity
// of matching a single object, the smallest nonzero answer the histogram
// can express — consistent with the 1/CountDistinct uniform path used
// when no histogram exists (the two coincide when all values are
// distinct).
func (h *Histogram) eqFloor() float64 {
	return clamp01(1 / float64(h.Total))
}

func (h *Histogram) inBucket(b Bucket, v types.Constant) bool {
	last := h.Buckets[len(h.Buckets)-1]
	closed := b.Lo.Equal(last.Lo) && b.Hi.Equal(last.Hi)
	if v.Compare(b.Lo) < 0 {
		return false
	}
	if closed {
		return v.Compare(b.Hi) <= 0
	}
	return v.Compare(b.Hi) < 0
}

// cumulativeBelow returns the estimated fraction of objects with value < v.
func (h *Histogram) cumulativeBelow(v types.Constant) float64 {
	acc := 0.0
	for _, b := range h.Buckets {
		switch {
		case v.Compare(b.Hi) >= 0:
			acc += float64(b.Count)
		case v.Compare(b.Lo) <= 0:
			// bucket entirely above v
		default:
			frac := types.Fraction(v, b.Lo, b.Hi)
			acc += frac * float64(b.Count)
		}
	}
	return acc / float64(h.Total)
}

// String renders the histogram compactly for debugging and catalog dumps.
func (h *Histogram) String() string {
	if h == nil {
		return "hist(nil)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "hist(total=%d", h.Total)
	for _, b := range h.Buckets {
		fmt.Fprintf(&sb, " [%s,%s):%d/%d", b.Lo, b.Hi, b.Count, b.Distinct)
	}
	sb.WriteByte(')')
	return sb.String()
}
