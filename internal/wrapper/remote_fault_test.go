package wrapper

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/netsim"
	"disco/internal/proto"
	"disco/internal/stats"
	"disco/internal/types"
)

// testPolicy retries fast so fault tests stay quick; the backoff is
// virtual so wall time is unaffected anyway.
func testPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BackoffMS: 10, BackoffMult: 2, MaxBackoffMS: 80, IOTimeout: 2 * time.Second}
}

// startFaultyRemote serves a wrapper through a fault injector and returns
// the address plus a redial function for clients.
func startFaultyRemote(t *testing.T, w Wrapper, inj *netsim.Injector) (string, func() (net.Conn, error)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go ServeFaulty(ln, w, inj)
	addr := ln.Addr().String()
	return addr, func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// dialFaulty connects a hardened client to a served wrapper.
func dialFaulty(t *testing.T, dial func() (net.Conn, error)) *RemoteWrapper {
	t.Helper()
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	rw, err := newRemote(conn, dial, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rw.Close() })
	return rw
}

// idPlan builds and resolves the canonical test subplan (id < n).
func idPlan(t *testing.T, w Wrapper, n int64) *algebra.Node {
	t.Helper()
	plan := algebra.Select(algebra.Scan("obj1", "Employee"),
		algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "id"}, stats.CmpLT, types.Int(n)))
	if err := algebra.Resolve(plan, wrapperSchemaSource{w}); err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestRemoteTruncatedFrameRedial is the regression test for the stream
// desync bug: the server cuts the first execute response mid-frame
// (inside its row block, then close). The old client kept the half-read
// connection and wedged every later request; the hardened client must
// discard it, redial, and answer correctly.
func TestRemoteTruncatedFrameRedial(t *testing.T) {
	backend := newObjWrapper(t, 100)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var connSeq int
	var seqMu sync.Mutex
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			seqMu.Lock()
			connSeq++
			first := connSeq == 1
			seqMu.Unlock()
			go func(conn net.Conn, truncateExecutes bool) {
				defer conn.Close()
				r := proto.NewReader(conn)
				for {
					req, err := r.ReadWrapperRequest()
					if err != nil {
						return
					}
					resp := handleWrapperRequest(req, backend)
					if truncateExecutes && req.Op == "execute" {
						proto.WriteTruncated(conn, resp, 0.6)
						return
					}
					if err := proto.Write(conn, resp); err != nil {
						return
					}
				}
			}(conn, first)
		}
	}()

	addr := ln.Addr().String()
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	rw := dialFaulty(t, dial)

	res, err := rw.Execute(idPlan(t, rw, 7))
	if err != nil {
		t.Fatalf("execute through a cut connection should self-heal: %v", err)
	}
	if len(res.Rows) != 7 {
		t.Errorf("rows = %d, want 7", len(res.Rows))
	}
	st := rw.Stats()
	if st.Redials < 1 || st.Retries < 1 {
		t.Errorf("stats = %+v; expected at least one retry and one redial", st)
	}
	// The healed connection keeps working.
	res, err = rw.Execute(idPlan(t, rw, 3))
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("second execute after heal = %d rows, %v", len(res.Rows), err)
	}
}

// TestRemoteStaleResponseNotReused covers the other half of the desync
// bug: a response that arrives after the client's deadline must never be
// read as the answer to a later request. The first connection delays its
// execute responses past the client deadline (but still writes them); the
// client must abandon that stream entirely.
func TestRemoteStaleResponseNotReused(t *testing.T) {
	backend := newObjWrapper(t, 100)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var connSeq int
	var seqMu sync.Mutex
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			seqMu.Lock()
			connSeq++
			slow := connSeq == 1
			seqMu.Unlock()
			go func(conn net.Conn, slow bool) {
				defer conn.Close()
				r := proto.NewReader(conn)
				for {
					req, err := r.ReadWrapperRequest()
					if err != nil {
						return
					}
					resp := handleWrapperRequest(req, backend)
					if slow && req.Op == "execute" {
						time.Sleep(250 * time.Millisecond) // past the client deadline
					}
					if err := proto.Write(conn, resp); err != nil {
						return
					}
				}
			}(conn, slow)
		}
	}()

	addr := ln.Addr().String()
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	policy := testPolicy()
	policy.IOTimeout = 50 * time.Millisecond
	rw, err := newRemote(conn, dial, policy)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()

	// First execute times out on the slow connection, then heals. A
	// desynced client would later decode the stale 7-row response as the
	// answer to the 3-row query.
	res, err := rw.Execute(idPlan(t, rw, 7))
	if err != nil || len(res.Rows) != 7 {
		t.Fatalf("first execute = %d rows, %v", len(res.Rows), err)
	}
	res, err = rw.Execute(idPlan(t, rw, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("second execute = %d rows, want 3 (stale response reused?)", len(res.Rows))
	}
}

// TestRemoteNoRedialBecomesUnavailable: without a redial target a torn
// connection makes the wrapper unavailable — the client must report that
// crisply instead of reusing the dead stream.
func TestRemoteNoRedialBecomesUnavailable(t *testing.T) {
	backend := newObjWrapper(t, 50)
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		r := proto.NewReader(server)
		for {
			req, err := r.ReadWrapperRequest()
			if err != nil {
				return
			}
			resp := handleWrapperRequest(req, backend)
			if req.Op == "execute" {
				proto.WriteTruncated(server, resp, 0.5)
				return
			}
			if err := proto.Write(server, resp); err != nil {
				return
			}
		}
	}()
	rw, err := newRemote(client, nil, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if _, err := rw.Execute(idPlan(t, rw, 7)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("execute over a dead pipe = %v, want ErrUnavailable", err)
	}
	// Later requests fail fast the same way instead of wedging.
	if _, err := rw.Execute(idPlan(t, rw, 3)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("second execute = %v, want ErrUnavailable", err)
	}
}

// TestRemoteInjectedTransientErrors: retryable error responses are
// absorbed by bounded retry on the same connection.
func TestRemoteInjectedTransientErrors(t *testing.T) {
	backend := newObjWrapper(t, 100)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := proto.NewReader(conn)
				failures := 0
				for {
					req, err := r.ReadWrapperRequest()
					if err != nil {
						return
					}
					if req.Op == "execute" && failures < 2 {
						failures++
						if err := proto.Write(conn, &proto.WrapperResponse{
							Error: "try again", Retryable: true,
						}); err != nil {
							return
						}
						continue
					}
					if err := proto.Write(conn, handleWrapperRequest(req, backend)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	addr := ln.Addr().String()
	rw := dialFaulty(t, func() (net.Conn, error) { return net.Dial("tcp", addr) })
	res, err := rw.Execute(idPlan(t, rw, 7))
	if err != nil || len(res.Rows) != 7 {
		t.Fatalf("execute = %d rows, %v", len(res.Rows), err)
	}
	st := rw.Stats()
	if st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
	if st.Redials != 0 {
		t.Errorf("redials = %d; transient errors should not tear the connection down", st.Redials)
	}
	// Backoff was charged to the execute's virtual time: 10 + 20 ms.
	if got := res.VirtualMS; got < 30 {
		t.Errorf("virtual time for two backoffs = %v ms, want >= 30", got)
	}
}

// TestRemoteInjectedDelay: ServeFaulty's delay faults surface as wrapper
// virtual time in the execute's Result, on top of the backend's own work.
func TestRemoteInjectedDelay(t *testing.T) {
	backend := newObjWrapper(t, 50)
	inj := netsim.NewInjector(netsim.FaultPlan{DelayMS: 123})
	_, dial := startFaultyRemote(t, backend, inj)
	rw := dialFaulty(t, dial)
	res, err := rw.Execute(idPlan(t, rw, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualMS < 123 {
		t.Errorf("execute took %v virtual ms, want >= 123 (injected delay)", res.VirtualMS)
	}
}

// TestRemoteInjectedDropsRecover: a flaky transport (seeded, deterministic
// drop faults) is healed by teardown-and-redial; answers stay correct.
func TestRemoteInjectedDropsRecover(t *testing.T) {
	backend := newObjWrapper(t, 100)
	inj := netsim.NewInjector(netsim.FaultPlan{DropProb: 0.4, Seed: 11})
	_, dial := startFaultyRemote(t, backend, inj)
	rw := dialFaulty(t, dial)
	for i := 0; i < 8; i++ {
		n := int64(2 + i)
		res, err := rw.Execute(idPlan(t, rw, n))
		if err != nil {
			t.Fatalf("execute %d: %v (stats %+v)", i, err, rw.Stats())
		}
		if int64(len(res.Rows)) != n {
			t.Fatalf("execute %d: %d rows, want %d", i, len(res.Rows), n)
		}
	}
	if st := rw.Stats(); st.Redials == 0 {
		t.Errorf("stats = %+v; the seeded plan should have dropped at least one connection", st)
	}
}

// TestRemoteUnavailableAfter: the unavailable latch surfaces as
// ErrUnavailable without burning the whole retry budget, and stays
// latched across redials.
func TestRemoteUnavailableAfter(t *testing.T) {
	backend := newObjWrapper(t, 50)
	inj := netsim.NewInjector(netsim.FaultPlan{UnavailableAfter: 2})
	_, dial := startFaultyRemote(t, backend, inj)
	rw := dialFaulty(t, dial) // meta = request 1
	if _, err := rw.Execute(idPlan(t, rw, 5)); err != nil {
		t.Fatalf("request 2 should still be served: %v", err)
	}
	_, err := rw.Execute(idPlan(t, rw, 5))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("request 3 = %v, want ErrUnavailable", err)
	}
	if _, err := rw.Execute(idPlan(t, rw, 5)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("request after latch = %v, want ErrUnavailable", err)
	}
}
