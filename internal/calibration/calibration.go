// Package calibration implements the paper's baseline: the calibrating
// approach of [DKS92]/[GST96]. A set of probe queries runs against a data
// source; least squares fits the coefficients of the mediator's generic
// (linear) cost formulas to the measurements. The fitted model "assumes
// that the number of pages fetched is proportional to the selectivity" —
// the assumption whose failure Figure 12 exhibits.
package calibration

import (
	"fmt"
	"math"

	"disco/internal/algebra"
	"disco/internal/objstore"
	"disco/internal/relstore"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// LinearFit is the least-squares line y = Intercept + Slope*x.
type LinearFit struct {
	Intercept float64
	Slope     float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// Predict evaluates the fitted line.
func (f LinearFit) Predict(x float64) float64 { return f.Intercept + f.Slope*x }

// String renders the fit.
func (f LinearFit) String() string {
	return fmt.Sprintf("y = %.4g + %.4g*x (R²=%.4f)", f.Intercept, f.Slope, f.R2)
}

// FitLinear computes the least-squares line through the points. It needs
// at least two distinct x values.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("calibration: need >= 2 paired samples, got %d/%d", len(xs), len(ys))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, fmt.Errorf("calibration: degenerate samples (all x equal)")
	}
	fit := LinearFit{}
	fit.Slope = (n*sxy - sx*sy) / den
	fit.Intercept = (sy - fit.Slope*sx) / n
	// R².
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
		r := ys[i] - fit.Predict(xs[i])
		ssRes += r * r
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// Sample is one probe measurement: a query returning K objects took
// TimeMS of virtual time.
type Sample struct {
	Selectivity float64
	K           float64
	TimeMS      float64
}

// BufferResetter is implemented by wrappers whose store can drop its
// cache so each probe starts cold (the calibrating procedure measures
// cold-start costs).
type BufferResetter interface {
	ResetBuffer()
}

// ProbeIndexScan measures an attribute-range access path at each
// selectivity: it executes select(scan(coll), attr < cut) through the
// wrapper and records (k, elapsed virtual ms). The attribute must be
// integer-valued and uniformly distributed in [min, max] for cut
// placement.
func ProbeIndexScan(w wrapper.Wrapper, collection, attr string,
	min, max int64, sels []float64) ([]Sample, error) {

	schemaSrc := singleWrapperSchemas{w}
	var out []Sample
	for _, sel := range sels {
		cut := min + int64(sel*float64(max-min))
		plan := algebra.Select(
			algebra.Scan(w.Name(), collection),
			algebra.NewSelPred(algebra.Ref{Collection: collection, Attr: attr},
				stats.CmpLT, types.Int(cut)))
		if err := algebra.Resolve(plan, schemaSrc); err != nil {
			return nil, err
		}
		resetBuffers(w)
		res, err := w.Execute(plan)
		if err != nil {
			return nil, err
		}
		out = append(out, Sample{
			Selectivity: sel,
			K:           float64(len(res.Rows)),
			TimeMS:      res.VirtualMS,
		})
	}
	return out, nil
}

// CalibrateIndexScan fits the linear index-scan model TotalTime =
// IdxFirst + k*IdxPerObj from probe samples — the classical calibration
// of the generic model's coefficients.
func CalibrateIndexScan(samples []Sample) (LinearFit, error) {
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.K
		ys[i] = s.TimeMS
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		return fit, err
	}
	if fit.Intercept < 0 {
		fit.Intercept = 0
	}
	if fit.Slope < 0 {
		return fit, fmt.Errorf("calibration: negative slope %.4g — samples inconsistent", fit.Slope)
	}
	return fit, nil
}

// RelativeError reports |est-actual| / actual; RMS aggregates it over
// sample pairs. The E2 experiment reports these.
func RelativeError(est, actual float64) float64 {
	if actual == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-actual) / math.Abs(actual)
}

// RMSRelativeError aggregates relative errors across pairs.
func RMSRelativeError(ests, actuals []float64) (float64, error) {
	if len(ests) != len(actuals) || len(ests) == 0 {
		return 0, fmt.Errorf("calibration: mismatched error series")
	}
	var acc float64
	for i := range ests {
		e := RelativeError(ests[i], actuals[i])
		acc += e * e
	}
	return math.Sqrt(acc / float64(len(ests))), nil
}

// resetBuffers drops the wrapper store's page cache when it has one, so
// each probe measures a cold start.
func resetBuffers(w wrapper.Wrapper) {
	switch v := w.(type) {
	case interface{ Store() *objstore.Store }:
		v.Store().ResetBuffer()
	case interface{ Store() *relstore.Store }:
		v.Store().ResetBuffer()
	case BufferResetter:
		v.ResetBuffer()
	}
}

// singleWrapperSchemas resolves plans against one wrapper.
type singleWrapperSchemas struct{ w wrapper.Wrapper }

// CollectionSchema implements algebra.SchemaSource.
func (s singleWrapperSchemas) CollectionSchema(_, collection string) (*types.Schema, error) {
	return s.w.Schema(collection)
}
