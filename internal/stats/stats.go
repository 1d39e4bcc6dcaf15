// Package stats implements the statistical machinery of the DISCO cost
// model: the extent and attribute statistics a wrapper exports through its
// cardinality methods (paper §3.2), the kernel the stores compute an
// attribute's statistics with (Summarize), the uniform selectivity rules
// over them, and Yao's page-access formula [Yao77] which the paper's
// Figure 12 experiment is built on.
package stats

import (
	"fmt"
	"math"

	"disco/internal/types"
)

// ExtentStats is the triplet returned by a wrapper's `extent` cardinality
// method: number of objects in the extent, total size in bytes, and the
// average object size in bytes.
type ExtentStats struct {
	CountObject int64
	TotalSize   int64
	ObjectSize  int64
}

// CountPage derives the page count of the extent for a given page size,
// rounding up. The mediator uses it as input to Yao's formula when a
// wrapper rule asks for it.
func (e ExtentStats) CountPage(pageSize int64) int64 {
	if pageSize <= 0 {
		return 0
	}
	return (e.TotalSize + pageSize - 1) / pageSize
}

// AttributeStats is the tuple returned by a wrapper's `attribute`
// cardinality method for one attribute: whether an index exists on it, the
// number of distinct values, and the minimum and maximum values.
type AttributeStats struct {
	Indexed       bool
	Clustered     bool // extension: index is clustering (paper §5 mentions clustering as hard for calibration)
	CountDistinct int64
	Min, Max      types.Constant
}

// CmpOp is a comparison operator appearing in selection predicates.
type CmpOp uint8

// The comparison operators of the predicate language.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	default:
		return fmt.Sprintf("cmp(%d)", uint8(op))
	}
}

// Eval applies the comparison to two constants.
func (op CmpOp) Eval(a, b types.Constant) bool {
	switch op {
	case CmpEQ:
		return a.Equal(b)
	case CmpNE:
		return !a.Equal(b)
	case CmpLT:
		return a.Compare(b) < 0
	case CmpLE:
		return a.Compare(b) <= 0
	case CmpGT:
		return a.Compare(b) > 0
	case CmpGE:
		return a.Compare(b) >= 0
	default:
		return false
	}
}

// Flip returns the operator with operands swapped (a op b == b Flip(op) a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGT:
		return CmpLT
	case CmpGE:
		return CmpLE
	default:
		return op
	}
}

// Selectivity estimates the fraction of objects satisfying `attr op value`
// given the attribute's statistics, under the classical uniform
// assumptions: 1/CountDistinct for equality, linear interpolation between
// Min and Max for ranges. The result is clamped to [0, 1].
func (a AttributeStats) Selectivity(op CmpOp, value types.Constant) float64 {
	switch op {
	case CmpEQ:
		if a.CountDistinct > 0 {
			return clamp01(1 / float64(a.CountDistinct))
		}
		return 0.1 // classical default for equality with no stats
	case CmpNE:
		return clamp01(1 - a.Selectivity(CmpEQ, value))
	case CmpLT, CmpLE:
		f := types.Fraction(value, a.Min, a.Max)
		return clamp01(f)
	case CmpGT, CmpGE:
		f := types.Fraction(value, a.Min, a.Max)
		return clamp01(1 - f)
	default:
		return 1.0 / 3.0 // classical default for ranges with no stats
	}
}

// JoinSelectivity estimates the selectivity of an equi-join between two
// attributes as 1/max(d1, d2), the textbook containment assumption the
// paper cites as 1/Min(CountDistinct(A), CountDistinct(B)) applied to the
// cross-product cardinality. Zero distinct counts fall back to a small
// default.
func JoinSelectivity(left, right AttributeStats) float64 {
	d := left.CountDistinct
	if right.CountDistinct > d {
		d = right.CountDistinct
	}
	if d <= 0 {
		return 0.01
	}
	return 1 / float64(d)
}

// Yao computes Yao's approximation of the fraction of pages touched when k
// objects are fetched at random from a collection of n objects spread over
// m pages [Yao77]. The paper uses the exponential approximation
// 1 - exp(-k/m) (with k = sel*CountObject); we expose both the exact
// hypergeometric form and the approximation the paper prints.
func Yao(n, m, k int64) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	// Exact: 1 - prod_{i=0}^{k-1} (n - n/m - i) / (n - i)
	perPage := float64(n) / float64(m)
	prod := 1.0
	for i := int64(0); i < k; i++ {
		num := float64(n) - perPage - float64(i)
		den := float64(n) - float64(i)
		if num <= 0 || den <= 0 {
			return 1
		}
		prod *= num / den
		if prod < 1e-12 {
			return 1
		}
	}
	return clamp01(1 - prod)
}

// YaoApprox is the exponential approximation the paper's Figure 13 rule
// uses: 1 - exp(-(sel*CountObject)/CountPage).
func YaoApprox(countObject, countPage int64, sel float64) float64 {
	if countPage <= 0 || countObject <= 0 || sel <= 0 {
		return 0
	}
	return clamp01(1 - math.Exp(-sel*float64(countObject)/float64(countPage)))
}

func clamp01(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
