package calibration

import (
	"math"
	"testing"
	"testing/quick"

	"disco/internal/objstore"
	"disco/internal/oo7"
	"disco/internal/wrapper"
)

func TestFitLinearExact(t *testing.T) {
	// y = 3 + 2x fits perfectly.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9, 11}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Intercept-3) > 1e-9 || math.Abs(fit.Slope-2) > 1e-9 || fit.R2 < 0.9999 {
		t.Errorf("fit = %s", fit)
	}
	if got := fit.Predict(10); math.Abs(got-23) > 1e-9 {
		t.Errorf("Predict(10) = %v", got)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single sample should fail")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x should fail")
	}
}

// Property: FitLinear recovers a noiseless line for random coefficients.
func TestFitLinearRecovery(t *testing.T) {
	f := func(a8, b8 int8) bool {
		a, b := float64(a8), float64(b8)
		xs := []float64{0, 1, 2, 5, 9}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a + b*x
		}
		fit, err := FitLinear(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(fit.Intercept-a) < 1e-6 && math.Abs(fit.Slope-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestErrorMetrics(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelativeError = %v", got)
	}
	if got := RelativeError(5, 0); got != 5 {
		t.Errorf("zero-actual RelativeError = %v", got)
	}
	rms, err := RMSRelativeError([]float64{110, 90}, []float64{100, 100})
	if err != nil || math.Abs(rms-0.1) > 1e-12 {
		t.Errorf("RMS = %v, %v", rms, err)
	}
	if _, err := RMSRelativeError(nil, nil); err == nil {
		t.Error("empty series should fail")
	}
}

// TestCalibrateOnSimulatedStore runs the actual calibrating procedure of
// [GST96] against the simulated OO7 store: probe index scans at a few
// selectivities, fit the linear model, and confirm what the paper
// reports — the line fits the probes reasonably but UNDERESTIMATES the
// midrange where Yao-shaped page fetches dominate.
func TestCalibrateOnSimulatedStore(t *testing.T) {
	cfg := objstore.DefaultConfig()
	cfg.BufferPages = 1200
	store := objstore.Open(cfg)
	scale := oo7.TinyScale()
	scale.AtomicParts = 14000 // 200 pages
	if err := oo7.Generate(store, scale, 11); err != nil {
		t.Fatal(err)
	}
	w := wrapper.NewObjWrapper("obj1", store)

	samples, err := ProbeIndexScan(w, oo7.AtomicParts, "id", 0, int64(scale.AtomicParts),
		[]float64{0.001, 0.01, 0.3, 0.6, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("samples = %d", len(samples))
	}
	fit, err := CalibrateIndexScan(samples)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope <= 0 {
		t.Errorf("fit = %s", fit)
	}
	// Measure an unseen midrange selectivity and compare.
	mid, err := ProbeIndexScan(w, oo7.AtomicParts, "id", 0, int64(scale.AtomicParts),
		[]float64{0.08})
	if err != nil {
		t.Fatal(err)
	}
	actual := mid[0].TimeMS
	predicted := fit.Predict(mid[0].K)
	if predicted >= actual {
		t.Errorf("calibrated line should underestimate the Yao midrange: predicted %v, actual %v",
			predicted, actual)
	}
}
