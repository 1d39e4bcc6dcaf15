package wrapper

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"disco/internal/algebra"
	"disco/internal/netsim"
	"disco/internal/proto"
	"disco/internal/stats"
	"disco/internal/types"
)

// ErrUnavailable marks a wrapper as unreachable after the self-healing
// machinery gave up: retries were exhausted, redialing failed, or the
// remote declared itself down. The engine treats a submit failing with
// this error as a source outage and degrades to a partial answer rather
// than failing the query.
var ErrUnavailable = errors.New("wrapper unavailable")

// RetryPolicy governs RemoteWrapper's per-request resilience: every
// request runs under a wall-clock I/O deadline, transport failures tear
// the connection down and redial, and retries back off exponentially.
// Backoff is charged to the execution's virtual time so that waiting out
// a flaky source costs simulated time, exactly like any other work.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries per request (minimum 1).
	MaxAttempts int
	// BackoffMS is the virtual backoff before the first retry.
	BackoffMS float64
	// BackoffMult scales the backoff on each further retry.
	BackoffMult float64
	// MaxBackoffMS caps the per-retry backoff.
	MaxBackoffMS float64
	// IOTimeout is the wall-clock deadline for one send+receive; zero
	// disables deadlines (not recommended outside tests).
	IOTimeout time.Duration
}

// DefaultRetryPolicy absorbs transient faults without masking a truly
// dead source for long: four attempts, 25 ms starting backoff doubling to
// a 400 ms ceiling, 5 s I/O deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BackoffMS: 25, BackoffMult: 2, MaxBackoffMS: 400, IOTimeout: 5 * time.Second}
}

// backoffMS returns the virtual backoff before the given retry (1-based).
func (p RetryPolicy) backoffMS(retry int) float64 {
	b := p.BackoffMS
	for i := 1; i < retry; i++ {
		b *= p.BackoffMult
	}
	if p.MaxBackoffMS > 0 && b > p.MaxBackoffMS {
		b = p.MaxBackoffMS
	}
	return b
}

// RemoteStats counts the self-healing machinery's interventions.
type RemoteStats struct {
	// Retries is the number of request re-attempts (any cause).
	Retries int
	// Redials is the number of reconnects after a torn-down transport.
	Redials int
}

// RemoteWrapper exposes a wrapper running in another process (served by
// Serve / cmd/wrapperd) to a local mediator. The registration payload is
// fetched once at dial time; subplans are shipped as serialized plans, and
// an execute's Result.VirtualMS is the remote's measured virtual time plus
// any retry backoff, so response-time accounting stays consistent across
// processes.
//
// The transport self-heals: requests run under an I/O deadline, any
// send/receive failure discards the connection (never reusing a half-read
// stream) and redials, and failed attempts retry with exponential backoff
// until RetryPolicy.MaxAttempts is exhausted — at which point the error
// wraps ErrUnavailable so the mediator can degrade gracefully.
type RemoteWrapper struct {
	policy RetryPolicy
	dial   func() (net.Conn, error) // nil: connection cannot be re-established

	mu      sync.Mutex
	conn    net.Conn
	r       *proto.Reader
	stats   RemoteStats
	meta    *proto.WrapperMeta
	schemas map[string]*types.Schema
	caps    Capabilities
}

// DialRemote connects to a wrapper server with the default retry policy
// and fetches its registration payload.
func DialRemote(addr string) (*RemoteWrapper, error) {
	return DialRemotePolicy(addr, DefaultRetryPolicy())
}

// DialRemotePolicy is DialRemote with an explicit retry policy.
func DialRemotePolicy(addr string, policy RetryPolicy) (*RemoteWrapper, error) {
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("wrapper: dialing %s: %w", addr, err)
	}
	return newRemote(conn, dial, policy)
}

// newRemote wraps an established connection with a redial function and a
// retry policy. Without a dialer the wrapper cannot redial: the first
// transport failure after the initial handshake makes it unavailable.
func newRemote(conn net.Conn, dial func() (net.Conn, error), policy RetryPolicy) (*RemoteWrapper, error) {
	if policy.MaxAttempts < 1 {
		policy.MaxAttempts = 1
	}
	w := &RemoteWrapper{policy: policy, dial: dial, conn: conn, r: proto.NewReader(conn)}
	resp, _, err := w.roundtrip(&proto.WrapperRequest{Op: "meta"})
	if err != nil {
		w.Close()
		return nil, err
	}
	if resp.Meta == nil {
		w.Close()
		return nil, fmt.Errorf("wrapper: remote returned no registration payload")
	}
	w.meta = resp.Meta
	w.caps = Capabilities{
		Select:    resp.Meta.Capabilities.Select,
		Project:   resp.Meta.Capabilities.Project,
		Join:      resp.Meta.Capabilities.Join,
		Sort:      resp.Meta.Capabilities.Sort,
		Aggregate: resp.Meta.Capabilities.Aggregate,
		Union:     resp.Meta.Capabilities.Union,
		DupElim:   resp.Meta.Capabilities.DupElim,
	}
	w.schemas = make(map[string]*types.Schema, len(resp.Meta.Collections))
	for _, c := range resp.Meta.Collections {
		schema, err := proto.DecodeSchema(c.Schema)
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("wrapper: remote schema of %s: %w", c.Name, err)
		}
		w.schemas[c.Name] = schema
	}
	return w, nil
}

// Close shuts the connection down.
func (w *RemoteWrapper) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.conn == nil {
		return nil
	}
	err := w.conn.Close()
	w.conn, w.r = nil, nil
	return err
}

// Stats reports how often the transport retried and redialed.
func (w *RemoteWrapper) Stats() RemoteStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// teardown discards the connection after a transport failure. The stream
// may hold a half-written request or a half-read response; reusing it
// would desync every subsequent exchange (the next reply would answer the
// previous request), so the connection is closed and redialed instead.
func (w *RemoteWrapper) teardown() {
	if w.conn != nil {
		w.conn.Close()
	}
	w.conn, w.r = nil, nil
}

// roundtrip sends one request and decodes its response, healing the
// transport as needed: backoff (virtual time) between attempts, redial
// after teardown, bounded by the retry policy. It also returns the
// request's virtual milliseconds: the backoffs and every response's
// measured time, failed attempts included. Responses marked Unavailable,
// and exhausted retries, return an error wrapping ErrUnavailable.
func (w *RemoteWrapper) roundtrip(req *proto.WrapperRequest) (*proto.WrapperResponse, float64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var m netsim.Meter
	var lastErr error
	for attempt := 1; attempt <= w.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			// Waiting out a flaky source costs simulated time.
			m.Add(w.policy.backoffMS(attempt - 1))
			w.stats.Retries++
		}
		if w.conn == nil {
			if w.dial == nil {
				return nil, m.MS(), fmt.Errorf("wrapper: connection lost and no redial target (last error: %v): %w",
					lastErr, ErrUnavailable)
			}
			conn, err := w.dial()
			if err != nil {
				lastErr = err
				continue
			}
			w.conn, w.r = conn, proto.NewReader(conn)
			w.stats.Redials++
		}
		resp, err := w.attempt(req)
		if err != nil {
			// Transport failure: the stream state is unknown — discard it.
			lastErr = err
			w.teardown()
			continue
		}
		// The remote measured virtual time even for failed attempts;
		// add it so injected delays and wasted work stay accounted.
		m.Add(resp.VirtualMS)
		switch {
		case resp.Unavailable:
			w.teardown()
			return nil, m.MS(), fmt.Errorf("wrapper: remote declared itself down: %s: %w", resp.Error, ErrUnavailable)
		case resp.OK:
			return resp, m.MS(), nil
		case resp.Retryable:
			lastErr = fmt.Errorf("wrapper: remote transient error: %s", resp.Error)
		default:
			// Semantic failure: retrying cannot help.
			return nil, m.MS(), fmt.Errorf("wrapper: remote: %s", resp.Error)
		}
	}
	return nil, m.MS(), fmt.Errorf("wrapper: request failed after %d attempts (last error: %v): %w",
		w.policy.MaxAttempts, lastErr, ErrUnavailable)
}

// attempt performs one deadline-bounded send+receive on the live
// connection.
func (w *RemoteWrapper) attempt(req *proto.WrapperRequest) (*proto.WrapperResponse, error) {
	if w.policy.IOTimeout > 0 {
		w.conn.SetDeadline(time.Now().Add(w.policy.IOTimeout))
		defer w.conn.SetDeadline(time.Time{})
	}
	if err := proto.Write(w.conn, req); err != nil {
		return nil, fmt.Errorf("wrapper: remote send: %w", err)
	}
	resp, err := w.r.ReadWrapperResponse()
	if err != nil {
		return nil, fmt.Errorf("wrapper: remote receive: %w", err)
	}
	return resp, nil
}

// Name implements Wrapper.
func (w *RemoteWrapper) Name() string { return w.meta.Name }

// Collections implements Wrapper.
func (w *RemoteWrapper) Collections() []string {
	out := make([]string, 0, len(w.meta.Collections))
	for _, c := range w.meta.Collections {
		out = append(out, c.Name)
	}
	return out
}

// Capabilities implements Wrapper.
func (w *RemoteWrapper) Capabilities() Capabilities { return w.caps }

// Schema implements Wrapper.
func (w *RemoteWrapper) Schema(collection string) (*types.Schema, error) {
	if s, ok := w.schemas[collection]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("wrapper: remote %s has no collection %q", w.meta.Name, collection)
}

func (w *RemoteWrapper) collMeta(collection string) (*proto.CollectionMeta, bool) {
	for i := range w.meta.Collections {
		if w.meta.Collections[i].Name == collection {
			return &w.meta.Collections[i], true
		}
	}
	return nil, false
}

// ExtentStats implements Wrapper.
func (w *RemoteWrapper) ExtentStats(collection string) (stats.ExtentStats, bool) {
	c, ok := w.collMeta(collection)
	if !ok || c.Extent == nil {
		return stats.ExtentStats{}, false
	}
	return stats.ExtentStats{
		CountObject: c.Extent.CountObject,
		TotalSize:   c.Extent.TotalSize,
		ObjectSize:  c.Extent.ObjectSize,
	}, true
}

// AttributeStats implements Wrapper.
func (w *RemoteWrapper) AttributeStats(collection, attr string) (stats.AttributeStats, bool) {
	c, ok := w.collMeta(collection)
	if !ok {
		return stats.AttributeStats{}, false
	}
	a, ok := c.Attrs[attr]
	if !ok {
		return stats.AttributeStats{}, false
	}
	return proto.DecodeAttrStats(a), true
}

// CostRules implements Wrapper.
func (w *RemoteWrapper) CostRules() string { return w.meta.CostRules }

// Execute implements Wrapper: ships the subplan and decodes the rows. The
// Result's VirtualMS is the remote's measured time plus any backoff; a
// failed execute returns that time too.
func (w *RemoteWrapper) Execute(plan *algebra.Node) (*Result, error) {
	resp, ms, err := w.roundtrip(&proto.WrapperRequest{Op: "execute", Plan: proto.EncodePlan(plan)})
	if err != nil {
		return &Result{VirtualMS: ms}, err
	}
	return &Result{Rows: resp.Rows, Schema: plan.OutSchema, Bytes: resp.Bytes, VirtualMS: ms}, nil
}

// Serve answers the wrapper wire protocol for one local wrapper,
// accepting connections until the listener closes. Each connection is
// served on its own goroutine.
func Serve(ln net.Listener, w Wrapper) error { return ServeFaulty(ln, w, nil) }

// ServeFaulty is Serve through a fault injector: each request first
// consults inj (nil injects nothing) and the decided fault is applied at
// the transport — delays are billed as wrapper virtual time, errors
// answer with a retryable failure, drops cut the connection mid-frame,
// and unavailability refuses the request and every later one. cmd/wrapperd
// wires its -faults flag here; in-process test servers drive the fault
// matrix through the same path.
//
// Requests take no server-wide lock: each execute meters its own virtual
// time (Result.VirtualMS), so executes on different connections run
// concurrently, and "meta" and "ping" read only the wrapper's immutable
// registration state.
func ServeFaulty(ln net.Listener, w Wrapper, inj *netsim.Injector) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, w, inj)
	}
}

func serveConn(conn net.Conn, w Wrapper, inj *netsim.Injector) {
	defer conn.Close()
	r := proto.NewReader(conn)
	for {
		req, err := r.ReadWrapperRequest()
		if err != nil {
			return
		}
		fault := inj.Next()
		switch fault.Kind {
		case netsim.FaultUnavailable:
			// Answer once so the client can stop retrying, then cut the
			// connection; later connections hit the latched injector too.
			proto.Write(conn, &proto.WrapperResponse{
				Error: "injected fault: wrapper unavailable", Unavailable: true,
			})
			return
		case netsim.FaultError:
			resp := &proto.WrapperResponse{
				Error: "injected fault: transient error", Retryable: true, VirtualMS: fault.DelayMS,
			}
			if err := proto.Write(conn, resp); err != nil {
				return
			}
			continue
		}
		resp := handleWrapperRequest(req, w)
		// A slow source bills its delay as virtual time the client merges.
		resp.VirtualMS += fault.DelayMS
		if fault.Kind == netsim.FaultDrop {
			// The connection dies while the response is in flight: the
			// client observes a mid-frame cut and must discard the stream.
			proto.WriteTruncated(conn, resp, 0.5)
			return
		}
		frame, err := proto.EncodeFrame(resp)
		if err != nil {
			// Over the frame limit: not retryable, it would overflow again.
			frame, err = proto.EncodeFrame(&proto.WrapperResponse{Error: err.Error(), VirtualMS: resp.VirtualMS})
			if err != nil {
				return
			}
		}
		if _, err := conn.Write(frame); err != nil {
			return
		}
	}
}

func handleWrapperRequest(req *proto.WrapperRequest, w Wrapper) *proto.WrapperResponse {
	switch req.Op {
	case "ping":
		return &proto.WrapperResponse{OK: true}

	case "meta":
		meta := &proto.WrapperMeta{Name: w.Name(), CostRules: w.CostRules()}
		caps := w.Capabilities()
		meta.Capabilities = proto.CapsJSON{
			Select: caps.Select, Project: caps.Project, Join: caps.Join,
			Sort: caps.Sort, Aggregate: caps.Aggregate, Union: caps.Union,
			DupElim: caps.DupElim,
		}
		for _, coll := range w.Collections() {
			schema, err := w.Schema(coll)
			if err != nil {
				return &proto.WrapperResponse{Error: err.Error()}
			}
			cm := proto.CollectionMeta{Name: coll, Schema: proto.EncodeSchema(schema)}
			if ext, ok := w.ExtentStats(coll); ok {
				cm.Extent = &proto.ExtentJSON{
					CountObject: ext.CountObject, TotalSize: ext.TotalSize, ObjectSize: ext.ObjectSize,
				}
			}
			for i := 0; i < schema.Len(); i++ {
				attr := schema.Field(i).Name
				if st, ok := w.AttributeStats(coll, attr); ok {
					if cm.Attrs == nil {
						cm.Attrs = make(map[string]proto.AttrStatsJSON)
					}
					cm.Attrs[attr] = proto.EncodeAttrStats(st)
				}
			}
			meta.Collections = append(meta.Collections, cm)
		}
		return &proto.WrapperResponse{OK: true, Meta: meta}

	case "execute":
		plan, err := proto.DecodePlan(req.Plan)
		if err != nil {
			return &proto.WrapperResponse{Error: err.Error()}
		}
		if plan == nil {
			return &proto.WrapperResponse{Error: "execute needs a plan"}
		}
		res, err := w.Execute(plan)
		if err != nil {
			return &proto.WrapperResponse{Error: err.Error()}
		}
		return &proto.WrapperResponse{OK: true, Rows: res.Rows, Bytes: res.Bytes, VirtualMS: res.VirtualMS}

	default:
		return &proto.WrapperResponse{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}
