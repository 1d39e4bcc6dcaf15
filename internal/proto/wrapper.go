package proto

import (
	"disco/internal/stats"
	"disco/internal/types"
)

// The wrapper wire protocol: a mediator speaks the same frames to a remote
// wrapper process (cmd/wrapperd). Two operations exist, mirroring the
// paper's two phases: "meta" uploads the registration payload (schema,
// capabilities, statistics, cost rules — Figure 1 steps 1-2) and
// "execute" runs one subplan (Figure 2 steps 4-5).

// WrapperRequest is one mediator-to-wrapper message.
type WrapperRequest struct {
	// Op is "meta", "execute" or "ping".
	Op string `json:"op"`
	// Plan carries the resolved subplan for execute.
	Plan *PlanJSON `json:"plan,omitempty"`
}

// ExtentJSON serializes exported extent statistics.
type ExtentJSON struct {
	CountObject int64 `json:"countObject"`
	TotalSize   int64 `json:"totalSize"`
	ObjectSize  int64 `json:"objectSize"`
}

// AttrStatsJSON serializes exported attribute statistics: the paper's
// Indexed/CountDistinct/Min/Max tuple plus the clustering flag, with each
// bound's kind so an int survives JSON's numbers.
type AttrStatsJSON struct {
	Indexed       bool   `json:"indexed,omitempty"`
	Clustered     bool   `json:"clustered,omitempty"`
	CountDistinct int64  `json:"countDistinct"`
	Min           any    `json:"min,omitempty"`
	Max           any    `json:"max,omitempty"`
	MinKind       string `json:"minKind,omitempty"`
	MaxKind       string `json:"maxKind,omitempty"`
}

// EncodeAttrStats serializes attribute statistics.
func EncodeAttrStats(a stats.AttributeStats) AttrStatsJSON {
	return AttrStatsJSON{
		Indexed:       a.Indexed,
		Clustered:     a.Clustered,
		CountDistinct: a.CountDistinct,
		Min:           EncodeConstant(a.Min),
		Max:           EncodeConstant(a.Max),
		MinKind:       a.Min.Kind().String(),
		MaxKind:       a.Max.Kind().String(),
	}
}

// DecodeAttrStats rebuilds attribute statistics.
func DecodeAttrStats(a AttrStatsJSON) stats.AttributeStats {
	fix := func(v any, kind string) types.Constant {
		c := DecodeConstant(v)
		switch kind {
		case types.KindInt.String():
			return types.Int(c.AsInt())
		case types.KindFloat.String():
			return types.Float(c.AsFloat())
		default:
			return c
		}
	}
	return stats.AttributeStats{
		Indexed:       a.Indexed,
		Clustered:     a.Clustered,
		CountDistinct: a.CountDistinct,
		Min:           fix(a.Min, a.MinKind),
		Max:           fix(a.Max, a.MaxKind),
	}
}

// CollectionMeta is the registration payload of one collection.
type CollectionMeta struct {
	Name   string                   `json:"name"`
	Schema []FieldJSON              `json:"schema"`
	Extent *ExtentJSON              `json:"extent,omitempty"`
	Attrs  map[string]AttrStatsJSON `json:"attrs,omitempty"`
}

// CapsJSON serializes wrapper capabilities.
type CapsJSON struct {
	Select    bool `json:"select,omitempty"`
	Project   bool `json:"project,omitempty"`
	Join      bool `json:"join,omitempty"`
	Sort      bool `json:"sort,omitempty"`
	Aggregate bool `json:"aggregate,omitempty"`
	Union     bool `json:"union,omitempty"`
	DupElim   bool `json:"dupelim,omitempty"`
}

// WrapperMeta is the full registration payload.
type WrapperMeta struct {
	Name         string           `json:"name"`
	Collections  []CollectionMeta `json:"collections"`
	Capabilities CapsJSON         `json:"capabilities"`
	CostRules    string           `json:"costRules,omitempty"`
}

// WrapperResponse is one wrapper-to-mediator message.
type WrapperResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Retryable marks a failed response as transient: the client may
	// retry the same request (with backoff) and expect it to succeed.
	// Semantic failures (bad plan, unknown op) are not retryable.
	Retryable bool `json:"retryable,omitempty"`
	// Unavailable marks the wrapper as permanently gone for this run;
	// the client should stop retrying and report the source as down.
	Unavailable bool `json:"unavailable,omitempty"`
	// Meta answers "meta".
	Meta *WrapperMeta `json:"meta,omitempty"`
	// Execute results.
	Rows  []types.Row `json:"-"` // travels as the frame's row block
	Bytes int64       `json:"bytes,omitempty"`
	// VirtualMS is the wrapper-side virtual time the subquery consumed;
	// it becomes the remote wrapper's Result.VirtualMS.
	VirtualMS float64 `json:"virtualMs,omitempty"`
}

// ReadWrapperRequest reads the next wrapper request.
func (r *Reader) ReadWrapperRequest() (*WrapperRequest, error) {
	var req WrapperRequest
	if err := r.read(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// ReadWrapperResponse reads the next wrapper response, rows included.
func (r *Reader) ReadWrapperResponse() (*WrapperResponse, error) {
	h := wrapperResponseHeader{WrapperResponse: new(WrapperResponse)}
	if err := r.readWithRows(&h, &h.RowBytes, &h.Rows); err != nil {
		return nil, err
	}
	return h.WrapperResponse, nil
}
