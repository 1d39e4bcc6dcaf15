package experiments

import (
	"fmt"
	"strings"

	"disco/internal/calibration"
	"disco/internal/core"
	"disco/internal/costlang"
	"disco/internal/objstore"
	"disco/internal/oo7"
)

// ClusteringRow is one point of experiment E8: the same range scan on
// clustered vs. unclustered placement.
type ClusteringRow struct {
	Selectivity float64
	// Measured seconds on each placement.
	UnclusteredS float64
	ClusteredS   float64
	// Blended estimates from the clustering-aware wrapper rule.
	EstUnclusteredS float64
	EstClusteredS   float64
	// The calibrated line (fitted on the unclustered store) applied to
	// the clustered one.
	CalibOnClusteredS float64
}

// ClusteringResult holds the E8 table.
type ClusteringResult struct {
	Rows []ClusteringRow
	// RMS errors of the unclustered-calibrated line and of the blended
	// rule, both against the clustered measurement.
	RMSCalibOnClustered float64
	RMSBlendedClustered float64
}

// Table renders E8.
func (r *ClusteringResult) Table() string {
	var b strings.Builder
	b.WriteString("E8 — clustering (paper §5/§7): index range scan, clustered vs. unclustered placement (seconds)\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s %14s\n",
		"sel", "unclust", "est", "clustered", "est", "calib-on-clust")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6.2f %12.1f %12.1f %12.1f %12.1f %14.1f\n",
			row.Selectivity, row.UnclusteredS, row.EstUnclusteredS,
			row.ClusteredS, row.EstClusteredS, row.CalibOnClusteredS)
	}
	fmt.Fprintf(&b, "error vs. clustered measurement: calibrated-on-unclustered RMS %.1f%%, clustering-aware rule RMS %.2f%%\n",
		100*r.RMSCalibOnClustered, 100*r.RMSBlendedClustered)
	return b.String()
}

// clusteredDeployment builds one OO7 store with the chosen placement and
// a blended estimator using the object wrapper's exported (clustering-
// aware) rules.
type clusteredDeployment struct {
	*figure12Deployment
	est *core.Estimator
}

func newClusteredDeployment(scale oo7.Scale, shuffled bool) (*clusteredDeployment, error) {
	s := scale
	s.ShuffledPlacement = shuffled
	d, err := newOO7DeploymentClustered(s)
	if err != nil {
		return nil, err
	}
	reg, err := core.NewDefaultRegistry()
	if err != nil {
		return nil, err
	}
	file, err := costlang.Parse(d.wrap.CostRules())
	if err != nil {
		return nil, err
	}
	if err := reg.IntegrateWrapper("oo7", file, d.cat); err != nil {
		return nil, err
	}
	return &clusteredDeployment{
		figure12Deployment: d,
		est:                core.NewEstimator(reg, d.cat, core.UniformNet{}),
	}, nil
}

// newOO7DeploymentClustered mirrors newOO7Deployment but marks the id
// index clustered when placement is ordered, so the exported statistics
// carry the Clustered flag the wrapper rule dispatches on.
func newOO7DeploymentClustered(scale oo7.Scale) (*figure12Deployment, error) {
	cfg := objstore.DefaultConfig()
	cfg.BufferPages = scale.AtomicParts/70 + 64
	store := objstore.Open(cfg)
	if err := generateClusterAware(store, scale); err != nil {
		return nil, err
	}
	w := newObjWrapper(store)
	cat := newCatalogFor(w)
	if cat == nil {
		return nil, fmt.Errorf("experiments: catalog registration failed")
	}
	return &figure12Deployment{store: store, wrap: w, cat: cat, scale: scale}, nil
}

// estimateRange estimates the Figure-12 range plan including delivery
// (submit boundary), in seconds.
func (d *clusteredDeployment) estimateRange(sel float64) (float64, error) {
	plan := oo7.RangeOnID("oo7", d.scale, sel)
	// Estimate the submit so the wrapper's Output term applies, with a
	// zero-cost link (the measurement has no network either).
	sub := wrapSubmit(plan, "oo7")
	if err := resolveAgainst(d.cat, sub); err != nil {
		return 0, err
	}
	pc, err := d.est.Estimate(sub)
	if err != nil {
		return 0, err
	}
	return pc.Root.TotalTime() / 1000, nil
}

// Clustering runs E8.
func Clustering(scale oo7.Scale, sels []float64) (*ClusteringResult, error) {
	if len(sels) == 0 {
		sels = []float64{0.05, 0.1, 0.2, 0.4, 0.7}
	}
	unclust, err := newClusteredDeployment(scale, true)
	if err != nil {
		return nil, err
	}
	clust, err := newClusteredDeployment(scale, false)
	if err != nil {
		return nil, err
	}

	// Calibrate the linear model on the unclustered store, as a generic
	// mediator would have.
	samples, err := calibration.ProbeIndexScan(unclust.wrap, oo7.AtomicParts, "id",
		0, int64(scale.AtomicParts), []float64{0.002, 0.005, 0.95, 1.0})
	if err != nil {
		return nil, err
	}
	fit, err := calibration.CalibrateIndexScan(samples)
	if err != nil {
		return nil, err
	}

	out := &ClusteringResult{}
	var calibEsts, blendEsts, clustActuals []float64
	for _, sel := range sels {
		kU, uS, err := unclust.measure(sel)
		if err != nil {
			return nil, err
		}
		_, cS, err := clust.measure(sel)
		if err != nil {
			return nil, err
		}
		estU, err := unclust.estimateRange(sel)
		if err != nil {
			return nil, err
		}
		estC, err := clust.estimateRange(sel)
		if err != nil {
			return nil, err
		}
		row := ClusteringRow{
			Selectivity:       sel,
			UnclusteredS:      uS,
			ClusteredS:        cS,
			EstUnclusteredS:   estU,
			EstClusteredS:     estC,
			CalibOnClusteredS: fit.Predict(float64(kU)) / 1000,
		}
		out.Rows = append(out.Rows, row)
		calibEsts = append(calibEsts, row.CalibOnClusteredS)
		blendEsts = append(blendEsts, row.EstClusteredS)
		clustActuals = append(clustActuals, row.ClusteredS)
	}
	if out.RMSCalibOnClustered, err = calibration.RMSRelativeError(calibEsts, clustActuals); err != nil {
		return nil, err
	}
	if out.RMSBlendedClustered, err = calibration.RMSRelativeError(blendEsts, clustActuals); err != nil {
		return nil, err
	}
	return out, nil
}

// generateClusterAware loads OO7 and marks the id index clustered when
// placement is in id order.
func generateClusterAware(store *objstore.Store, scale oo7.Scale) error {
	// oo7.Generate always creates an unclustered id index; recreate the
	// data here with the clustered flag set appropriately. Reuse the
	// generator and fix the flag via a fresh index when ordered.
	if scale.ShuffledPlacement {
		return oo7.Generate(store, scale, 1)
	}
	if err := oo7.Generate(store, scale, 1); err != nil {
		return err
	}
	// Placement is id-ordered: re-register the index as clustering by
	// building a parallel collection is wasteful; instead expose the
	// flag through a dedicated helper on the collection.
	c, ok := store.Collection(oo7.AtomicParts)
	if !ok {
		return fmt.Errorf("experiments: AtomicParts missing")
	}
	return c.MarkClustered("id")
}
