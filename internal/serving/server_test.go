package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"disco/internal/mediator"
	"disco/internal/proto"
	"disco/internal/resultcache"
)

// testServer builds one small federation for the connection tests.
func testServer(t *testing.T, opts Options, idle time.Duration) *Server {
	t.Helper()
	if opts.Parts == 0 {
		opts.Parts = 500
	}
	fed, err := NewDemoFederation(opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(fed, idle)
}

// serveListener starts srv on an ephemeral listener and returns its
// address plus the channel Serve's result lands on.
func serveListener(t *testing.T, srv *Server) (string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(time.Second)
		select { // drained already if the test read Serve's result itself
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return ln.Addr().String(), done
}

// dialServed starts a TCP listener serving srv and dials one client
// connection to it.
func dialServed(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	addr, _ := serveListener(t, srv)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestIdleTimeoutDropsSilentConnection: a connection that goes silent —
// the shape of a half-open peer whose FIN never arrives — is dropped by
// the idle read deadline instead of pinning its goroutine forever.
func TestIdleTimeoutDropsSilentConnection(t *testing.T) {
	srv := testServer(t, Options{}, 150*time.Millisecond)
	conn := dialServed(t, srv)
	r := proto.NewReader(conn)

	// The connection works while traffic flows.
	if err := proto.Write(conn, &proto.Request{Op: "ping"}); err != nil {
		t.Fatal(err)
	}
	resp, err := r.ReadResponse()
	if err != nil || !resp.OK {
		t.Fatalf("ping: %v %+v", err, resp)
	}

	// Now stay silent. The server must close the connection: the next
	// read on our side finishes with an error (EOF/reset) well before
	// the watchdog fires.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := r.ReadResponse(); err == nil {
		t.Fatal("server kept a silent connection open past the idle timeout")
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Errorf("connection dropped after %v, before the idle timeout", waited)
	}
}

// TestConcurrentConnections serves several sessions at once — the
// serialized-handler regression test: all queries succeed with correct
// results, none deadlocks.
func TestConcurrentConnections(t *testing.T) {
	srv := testServer(t, Options{}, 5*time.Second)

	const sessions = 4
	const queriesPerSession = 3
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		conn := dialServed(t, srv)
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			r := proto.NewReader(conn)
			for q := 0; q < queriesPerSession; q++ {
				if err := proto.Write(conn, &proto.Request{
					Op: "query", SQL: `SELECT sname FROM Suppliers WHERE region = 3`,
				}); err != nil {
					errs <- err
					return
				}
				resp, err := r.ReadResponse()
				if err != nil {
					errs <- err
					return
				}
				if !resp.OK || len(resp.Rows) != 42 {
					t.Errorf("session query: ok=%v rows=%d error=%q", resp.OK, len(resp.Rows), resp.Error)
					return
				}
			}
		}(conn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if st := srv.fed.Med.Stats(); st.PlanCacheHits == 0 {
		t.Errorf("identical statements across sessions should share cached plans, stats = %+v", st)
	}
}

// TestOverloadedResponseShape pins the wire mapping: an admission-shed
// error carries the Overloaded marker so clients back off and retry,
// while ordinary failures do not. (The shedding behaviour itself is
// covered by the mediator's admission tests.)
func TestOverloadedResponseShape(t *testing.T) {
	resp := errorResponse(fmt.Errorf("serving: %w", mediator.ErrOverloaded))
	if resp.OK || !resp.Overloaded || resp.Error == "" {
		t.Errorf("shed error response = %+v, want !OK with Overloaded set", resp)
	}
	resp = errorResponse(errors.New("parse error"))
	if resp.Overloaded {
		t.Errorf("ordinary error must not be marked overloaded: %+v", resp)
	}
}

func TestHandleFeedbackOps(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snap.json")
	srv := testServer(t, Options{Feedback: true, FeedbackSnapshot: snap}, 0)
	sql := `SELECT sname FROM Suppliers WHERE region = 3`

	resp := srv.Handle(&proto.Request{Op: "explain-analyze", SQL: sql})
	if !resp.OK {
		t.Fatalf("explain-analyze: %s", resp.Error)
	}
	for _, want := range []string{"estimated TotalTime", "act=", "q="} {
		if !strings.Contains(resp.Text, want) {
			t.Errorf("explain-analyze output missing %q:\n%s", want, resp.Text)
		}
	}

	resp = srv.Handle(&proto.Request{Op: "feedback"})
	if !resp.OK {
		t.Fatalf("feedback: %s", resp.Error)
	}
	if !strings.Contains(resp.Text, "suppliers/submit") {
		t.Errorf("feedback summary missing observed scope:\n%s", resp.Text)
	}
}

func TestHandleFeedbackDisabled(t *testing.T) {
	srv := testServer(t, Options{}, 0)
	if resp := srv.Handle(&proto.Request{Op: "feedback"}); resp.OK || !strings.Contains(resp.Error, "disabled") {
		t.Errorf("feedback op with feedback off should error, got %+v", resp)
	}
	if resp := srv.Handle(&proto.Request{Op: "explain-analyze", SQL: `SELECT sid FROM Suppliers WHERE sid = 1`}); !resp.OK {
		t.Errorf("explain-analyze should work without feedback: %s", resp.Error)
	}
}

// TestGracefulShutdown: Shutdown stops the accept loop with
// ErrServerClosed, force-closes connections that outlive the drain
// window, and is idempotent.
func TestGracefulShutdown(t *testing.T) {
	srv := testServer(t, Options{}, 0)
	addr, done := serveListener(t, srv)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := proto.NewReader(conn)
	if err := proto.Write(conn, &proto.Request{Op: "ping"}); err != nil {
		t.Fatal(err)
	}
	if resp, err := r.ReadResponse(); err != nil || !resp.OK {
		t.Fatalf("ping: %v %+v", err, resp)
	}

	// The client stays connected, so the drain window must expire and
	// the connection be force-closed.
	start := time.Now()
	if err := srv.Shutdown(100 * time.Millisecond); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("shutdown took %v, drain window was 100ms", took)
	}
	err = <-done
	done <- err // put back for serveListener's cleanup
	if !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadResponse(); err == nil {
		t.Error("connection survived shutdown")
	}
	// Idempotent.
	if err := srv.Shutdown(time.Millisecond); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
	// New connections are refused (listener closed).
	if c, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		c.Close()
		t.Error("dial succeeded after shutdown")
	}
}

// TestShutdownDrainsFast: when clients hang up on their own, Shutdown
// returns well before the drain window expires.
func TestShutdownDrainsFast(t *testing.T) {
	srv := testServer(t, Options{}, 0)
	conn := dialServed(t, srv)
	conn.Close()
	start := time.Now()
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("shutdown took %v with no live connections", took)
	}
}

// TestStatsOp pins the stats wire shape: valid JSON carrying the
// mediator counters, the connection counters, and the catalog epoch.
func TestStatsOp(t *testing.T) {
	srv := testServer(t, Options{}, 0)
	for i := 0; i < 3; i++ {
		if resp := srv.Handle(&proto.Request{Op: "query", SQL: `SELECT sname FROM Suppliers WHERE region = 3`}); !resp.OK {
			t.Fatalf("query: %s", resp.Error)
		}
	}
	resp := srv.Handle(&proto.Request{Op: "stats"})
	if !resp.OK {
		t.Fatalf("stats: %s", resp.Error)
	}
	var st Stats
	if err := json.Unmarshal([]byte(resp.Text), &st); err != nil {
		t.Fatalf("stats payload is not JSON: %v\n%s", err, resp.Text)
	}
	if st.Mediator.QueriesServed != 3 {
		t.Errorf("QueriesServed = %d, want 3", st.Mediator.QueriesServed)
	}
	if st.Mediator.PlanCacheHits != 2 || st.Mediator.PlanCacheMisses == 0 {
		t.Errorf("plan cache counters off: %+v", st.Mediator)
	}
	// Three wrappers registered at startup.
	if st.Epoch != 3 {
		t.Errorf("epoch = %d, want 3", st.Epoch)
	}
}

// TestReregisterOp: re-registration over the wire bumps the catalog
// epoch and flushes the plan cache; unknown wrappers are rejected.
func TestReregisterOp(t *testing.T) {
	srv := testServer(t, Options{}, 0)
	if resp := srv.Handle(&proto.Request{Op: "query", SQL: `SELECT sname FROM Suppliers WHERE region = 3`}); !resp.OK {
		t.Fatalf("query: %s", resp.Error)
	}
	before := srv.Stats()
	if before.Mediator.PlanCacheEntries == 0 {
		t.Fatal("expected a cached plan before reregistration")
	}

	resp := srv.Handle(&proto.Request{Op: "reregister", Arg: "oo7"})
	if !resp.OK {
		t.Fatalf("reregister: %s", resp.Error)
	}
	after := srv.Stats()
	if after.Epoch != before.Epoch+1 {
		t.Errorf("epoch %d → %d, want +1", before.Epoch, after.Epoch)
	}
	if after.Mediator.PlanCacheEntries != 0 {
		t.Errorf("plan cache kept %d entries across reregistration", after.Mediator.PlanCacheEntries)
	}
	// The same query still works after the epoch bump.
	if resp := srv.Handle(&proto.Request{Op: "query", SQL: `SELECT sname FROM Suppliers WHERE region = 3`}); !resp.OK || len(resp.Rows) != 42 {
		t.Errorf("query after reregister: ok=%v rows=%d %s", resp.OK, len(resp.Rows), resp.Error)
	}

	if resp := srv.Handle(&proto.Request{Op: "reregister", Arg: "nope"}); resp.OK {
		t.Error("reregistering an unknown wrapper must fail")
	}
}

// TestSetLinkOp: a link perturbation changes measured virtual time but
// never results; malformed specs are rejected.
func TestSetLinkOp(t *testing.T) {
	srv := testServer(t, Options{}, 0)
	sql := `SELECT sname FROM Suppliers WHERE region = 3`
	base := srv.Handle(&proto.Request{Op: "query", SQL: sql})
	if !base.OK {
		t.Fatalf("query: %s", base.Error)
	}

	if resp := srv.Handle(&proto.Request{Op: "setlink", Arg: "suppliers 500 0.001"}); !resp.OK {
		t.Fatalf("setlink: %s", resp.Error)
	}
	slow := srv.Handle(&proto.Request{Op: "query", SQL: sql})
	if !slow.OK {
		t.Fatalf("query after setlink: %s", slow.Error)
	}
	if len(slow.Rows) != len(base.Rows) {
		t.Errorf("setlink changed results: %d rows vs %d", len(slow.Rows), len(base.Rows))
	}
	if slow.ElapsedMS <= base.ElapsedMS {
		t.Errorf("500ms link latency did not slow the query: %.3f → %.3f virtual ms",
			base.ElapsedMS, slow.ElapsedMS)
	}

	for _, bad := range []string{"", "suppliers", "suppliers x 1", "suppliers 1 x", "nope 1 1", "suppliers -1 0"} {
		if resp := srv.Handle(&proto.Request{Op: "setlink", Arg: bad}); resp.OK {
			t.Errorf("setlink %q should fail", bad)
		}
	}
}

// TestWarmOp: the warm op primes the plan cache (always) and the result
// cache (when enabled and cold), with no client-visible rows; warming is
// idempotent and a later query is served from the seeded result cache.
func TestWarmOp(t *testing.T) {
	srv := testServer(t, Options{ResultCache: resultcache.Config{Enabled: true}}, 0)
	sql := `SELECT sname FROM Suppliers WHERE region = 3`

	resp := srv.Handle(&proto.Request{Op: "warm", SQL: sql})
	if !resp.OK || resp.Text != "warmed (plan+result)" {
		t.Fatalf("cold warm: ok=%v text=%q err=%s", resp.OK, resp.Text, resp.Error)
	}
	if len(resp.Rows) != 0 {
		t.Errorf("warm leaked %d result rows to the client", len(resp.Rows))
	}
	if resp := srv.Handle(&proto.Request{Op: "warm", SQL: sql}); !resp.OK || resp.Text != "warmed (plan)" {
		t.Fatalf("re-warm: ok=%v text=%q err=%s", resp.OK, resp.Text, resp.Error)
	}

	before := srv.Stats().Mediator
	q := srv.Handle(&proto.Request{Op: "query", SQL: sql})
	if !q.OK || len(q.Rows) != 42 {
		t.Fatalf("warmed query: ok=%v rows=%d %s", q.OK, len(q.Rows), q.Error)
	}
	after := srv.Stats().Mediator
	if after.ResultCacheHits != before.ResultCacheHits+1 {
		t.Errorf("warmed query missed the result cache: hits %d → %d",
			before.ResultCacheHits, after.ResultCacheHits)
	}

	// With the result cache disabled, warming still primes the plan cache.
	plain := testServer(t, Options{}, 0)
	if resp := plain.Handle(&proto.Request{Op: "warm", SQL: sql}); !resp.OK || resp.Text != "warmed (plan)" {
		t.Fatalf("plan-only warm: ok=%v text=%q err=%s", resp.OK, resp.Text, resp.Error)
	}
	if st := plain.Stats().Mediator; st.PlanCacheEntries == 0 {
		t.Error("warm did not populate the plan cache")
	}
	if resp := plain.Handle(&proto.Request{Op: "warm", SQL: "SELECT nonsense FROM"}); resp.OK {
		t.Error("warming an invalid statement must fail")
	}
}
