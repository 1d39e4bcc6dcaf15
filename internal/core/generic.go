package core

import (
	"disco/internal/costlang"
	"disco/internal/costvm"
	"disco/internal/types"
)

// The mediator's per-row processing times in milliseconds: the local-scope
// coefficients of the generic model and, read by engine.ownCharge, what
// executing a mediator operator charges its execution. One source for
// both means accurate cardinalities imply accurate mediator estimates.
const (
	MedPerObj      = 0.004
	MedPerPred     = 0.006
	MedProjPerObj  = 0.003
	MedSortPerObj  = 0.010
	MedHashPerObj  = 0.012
	MedJoinPerPair = 0.004
)

// DefaultCoefficients returns the mediator's generic-model coefficient
// table (paper §2.3: time parameters "buried in global cost formula
// parameters", established by calibration [GST96]). All times are in
// milliseconds; the wrapper-side constants default to the paper's
// ObjectStore measurements (IO = 25 ms/page, Output = 9 ms/object). The
// calibration package re-fits the Wr* entries per wrapper.
func DefaultCoefficients() map[string]types.Constant {
	return map[string]types.Constant{
		"PageSize": types.Int(4096),

		// Generic wrapper-side costs.
		"ScanFirst":     types.Float(120), // query start-up (Figure 8's constant)
		"WrIO":          types.Float(25),  // page fetch
		"WrPerObj":      types.Float(0.05),
		"OutPerObj":     types.Float(9), // per-object result delivery
		"SelPerObj":     types.Float(0.2),
		"IdxFirst":      types.Float(130),
		"IdxPerObj":     types.Float(9.4), // calibrated linear index-scan slope
		"IdxProbe":      types.Float(12),
		"JoinPerPair":   types.Float(0.01),
		"SortPerObj":    types.Float(0.08),
		"MergePerObj":   types.Float(0.05),
		"HashPerObj":    types.Float(0.05),
		"AggPerGroup":   types.Float(0.1),
		"UnionPerObj":   types.Float(0.02),
		"DupElimFactor": types.Float(0.5),

		// Mediator-side (local) costs: main-memory operator pipeline.
		"MedPerObj":      types.Float(MedPerObj),
		"MedPerPred":     types.Float(MedPerPred),
		"MedProjPerObj":  types.Float(MedProjPerObj),
		"MedSortPerObj":  types.Float(MedSortPerObj),
		"MedHashPerObj":  types.Float(MedHashPerObj),
		"MedJoinPerPair": types.Float(MedJoinPerPair),
	}
}

// genericModelSrc is the mediator's generic cost model (paper §2.3)
// expressed in the cost communication language itself. Head identifiers
// are all free variables at default scope. Where the model considers
// several implementations of one operator (sequential vs. index scan,
// nested-loops vs. sort-merge vs. index join) it supplies several rules at
// the same specificity: all are evaluated and the lowest value wins, the
// paper's Step 3 resolution. Rules that only apply under a condition (an
// index exists) guard their formulas with require(), whose failure falls
// through to the next level.
const genericModelSrc = `
# ----- unary operators ------------------------------------------------

scan(C) {
  CountObject = C.CountObject;
  ObjectSize  = C.ObjectSize;
  TotalSize   = C.TotalSize;
  TimeFirst   = ScanFirst;
  TotalTime   = ScanFirst + C.CountPage * WrIO + C.CountObject * WrPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# Sequential selection: pay for the input, then filter every object.
# Result delivery is charged at the submit boundary, not here.
select(C, P) {
  CountObject = C.CountObject * predsel();
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C.TimeFirst;
  TotalTime   = C.TotalTime + C.CountObject * SelPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# Index selection (calibrated linear model): replaces the input scan when
# an index exists on the restricted attribute. This is the formula whose
# linearity Figure 12 shows failing for clustered page access.
select(C, A = V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, IdxFirst);
  TotalTime   = require(C.A.Indexed, IdxFirst + CountObject * IdxPerObj);
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
select(C, A < V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, IdxFirst);
  TotalTime   = require(C.A.Indexed, IdxFirst + CountObject * IdxPerObj);
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
select(C, A <= V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, IdxFirst);
  TotalTime   = require(C.A.Indexed, IdxFirst + CountObject * IdxPerObj);
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
select(C, A > V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, IdxFirst);
  TotalTime   = require(C.A.Indexed, IdxFirst + CountObject * IdxPerObj);
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
select(C, A >= V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, IdxFirst);
  TotalTime   = require(C.A.Indexed, IdxFirst + CountObject * IdxPerObj);
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

project(C) {
  CountObject = C.CountObject;
  ObjectSize  = C.ObjectSize * Arity / max(C.Arity, 1);
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C.TimeFirst;
  TotalTime   = C.TotalTime + C.CountObject * WrPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

sort(C) {
  CountObject = C.CountObject;
  ObjectSize  = C.ObjectSize;
  TotalSize   = C.TotalSize;
  TimeFirst   = C.TotalTime + C.CountObject * log2(C.CountObject + 2) * SortPerObj;
  TotalTime   = TimeFirst + CountObject * WrPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

dupelim(C) {
  CountObject = max(C.CountObject * DupElimFactor, min(C.CountObject, 1));
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C.TimeFirst;
  TotalTime   = C.TotalTime + C.CountObject * HashPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

aggregate(C) {
  CountObject = groups();
  ObjectSize  = 16 * Arity;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C.TotalTime + C.CountObject * HashPerObj;
  TotalTime   = TimeFirst + CountObject * AggPerGroup;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# ----- binary operators -----------------------------------------------

# Nested-loops join.
join(C1, C2, P) {
  CountObject = C1.CountObject * C2.CountObject * joinsel();
  ObjectSize  = C1.ObjectSize + C2.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C1.TimeFirst + C2.TimeFirst;
  TotalTime   = C1.TotalTime + C2.TotalTime + C1.CountObject * C2.CountObject * JoinPerPair;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# Sort-merge join: same head shape and specificity as nested loops, so
# both are evaluated and the cheaper estimate wins (paper 2.3: "the best
# of the two others is chosen").
join(C1, C2, P) {
  TotalTime = C1.TotalTime + C2.TotalTime
            + (C1.CountObject * log2(C1.CountObject + 2) + C2.CountObject * log2(C2.CountObject + 2)) * SortPerObj
            + (C1.CountObject + C2.CountObject) * MergePerObj;
}

# Index join: applies when the inner input carries an index on its join
# attribute ("when an index is existing, the index join formula is
# selected").
join(C1, C2, A1 = A2) {
  CountObject = C1.CountObject * C2.CountObject * joinsel();
  ObjectSize  = C1.ObjectSize + C2.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C1.TimeFirst;
  TotalTime   = require(C2.A2.Indexed,
                  C1.TotalTime + C1.CountObject * (IdxProbe + IdxPerObj * max(C2.CountObject / max(C2.A2.CountDistinct, 1), 1)));
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

union(C1, C2) {
  CountObject = C1.CountObject + C2.CountObject;
  ObjectSize  = (C1.ObjectSize + C2.ObjectSize) / 2;
  TotalSize   = C1.TotalSize + C2.TotalSize;
  TimeFirst   = min(C1.TimeFirst, C2.TimeFirst);
  TotalTime   = C1.TotalTime + C2.TotalTime + CountObject * UnionPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# ----- submit: the wrapper boundary ------------------------------------
# The source delivers each result object (OutPerObj) and the network ships
# the bytes.

submit(C) {
  CountObject = C.CountObject;
  ObjectSize  = C.ObjectSize;
  TotalSize   = C.TotalSize;
  TimeFirst   = C.TimeFirst + Net.Latency;
  TotalTime   = C.TotalTime + C.CountObject * OutPerObj + Net.Latency + C.TotalSize * Net.PerByte;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
`

// localModelSrc holds the mediator's own operator costs (local scope,
// paper footnote 1: the mediator processes local operators with its own
// physical algebra). The mediator pipeline is main-memory, so its
// per-object constants are far below the generic wrapper ones.
const localModelSrc = `
select(C, P) {
  CountObject = C.CountObject * predsel();
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C.TimeFirst;
  TotalTime   = C.TotalTime + C.CountObject * MedPerPred;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

project(C) {
  CountObject = C.CountObject;
  ObjectSize  = C.ObjectSize * Arity / max(C.Arity, 1);
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C.TimeFirst;
  TotalTime   = C.TotalTime + C.CountObject * MedProjPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

sort(C) {
  CountObject = C.CountObject;
  ObjectSize  = C.ObjectSize;
  TotalSize   = C.TotalSize;
  TimeFirst   = C.TotalTime + C.CountObject * log2(C.CountObject + 2) * MedSortPerObj;
  TotalTime   = TimeFirst + CountObject * MedPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

dupelim(C) {
  CountObject = max(C.CountObject * DupElimFactor, min(C.CountObject, 1));
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C.TimeFirst;
  TotalTime   = C.TotalTime + C.CountObject * MedHashPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

aggregate(C) {
  CountObject = groups();
  ObjectSize  = 16 * Arity;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C.TotalTime + C.CountObject * MedHashPerObj;
  TotalTime   = TimeFirst + CountObject * MedPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# Mediator nested-loops join (inner materialized in memory).
join(C1, C2, P) {
  CountObject = C1.CountObject * C2.CountObject * joinsel();
  ObjectSize  = C1.ObjectSize + C2.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C1.TimeFirst + C2.TotalTime;
  TotalTime   = C1.TotalTime + C2.TotalTime + C1.CountObject * C2.CountObject * MedJoinPerPair;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# Mediator hash join for equi-predicates: cheaper than nested loops on
# large inputs, min-resolution picks it when applicable.
join(C1, C2, A1 = A2) {
  CountObject = C1.CountObject * C2.CountObject * joinsel();
  ObjectSize  = C1.ObjectSize + C2.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C1.TimeFirst + C2.TotalTime;
  TotalTime   = C1.TotalTime + C2.TotalTime
              + (C1.CountObject + C2.CountObject) * MedHashPerObj
              + CountObject * MedPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

union(C1, C2) {
  CountObject = C1.CountObject + C2.CountObject;
  ObjectSize  = (C1.ObjectSize + C2.ObjectSize) / 2;
  TotalSize   = C1.TotalSize + C2.TotalSize;
  TimeFirst   = min(C1.TimeFirst, C2.TimeFirst);
  TotalTime   = C1.TotalTime + C2.TotalTime + CountObject * MedPerObj;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
`

// NewDefaultRegistry builds a registry preloaded with the mediator's
// generic (default-scope) and local-scope cost models.
func NewDefaultRegistry() (*Registry, error) {
	reg := NewRegistry(costvm.NewFuncRegistry())
	generic, err := costlang.Parse(genericModelSrc)
	if err != nil {
		return nil, err
	}
	if err := reg.IntegrateDefaults(generic, false); err != nil {
		return nil, err
	}
	local, err := costlang.Parse(localModelSrc)
	if err != nil {
		return nil, err
	}
	if err := reg.IntegrateDefaults(local, true); err != nil {
		return nil, err
	}
	return reg, nil
}

// MustDefaultRegistry is NewDefaultRegistry panicking on error; the model
// sources are compile-time constants, so failure is a programming error.
func MustDefaultRegistry() *Registry {
	reg, err := NewDefaultRegistry()
	if err != nil {
		panic(err)
	}
	return reg
}
