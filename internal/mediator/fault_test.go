package mediator

import (
	"net"
	"testing"
	"time"

	"disco/internal/engine"
	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// testRetryPolicy keeps wall-clock waits tiny: backoff is virtual anyway,
// and the injected faults are deterministic, so short I/O deadlines only
// matter for genuinely stuck connections.
func testRetryPolicy() wrapper.RetryPolicy {
	return wrapper.RetryPolicy{MaxAttempts: 6, BackoffMS: 10, BackoffMult: 2, MaxBackoffMS: 100, IOTimeout: 2 * time.Second}
}

// startFaultyDeployment runs an object-store wrapper named "remoteparts"
// behind ServeFaulty with the given plan and registers it (plus the local
// three-source fixture) into a fresh mediator. The returned injector
// observes every request the server decided on.
func startFaultyDeployment(t *testing.T, plan netsim.FaultPlan) (*Mediator, *wrapper.RemoteWrapper, *netsim.Injector) {
	t.Helper()
	m := buildMediator(t, DefaultConfig())

	store := objstore.Open(objstore.DefaultConfig())
	parts, err := store.CreateCollection("Parts", types.NewSchema(
		types.Field{Name: "pid", Collection: "Parts", Type: types.KindInt},
		types.Field{Name: "owner", Collection: "Parts", Type: types.KindInt},
	), 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		parts.Insert(types.Row{types.Int(int64(i)), types.Int(int64(i % 1000))})
	}
	if err := parts.CreateIndex("pid", true); err != nil {
		t.Fatal(err)
	}
	backend := wrapper.NewObjWrapper("remoteparts", store)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	inj := netsim.NewInjector(plan)
	go wrapper.ServeFaulty(ln, backend, inj)

	rw, err := wrapper.DialRemotePolicy(ln.Addr().String(), testRetryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rw.Close() })
	if err := m.Register(rw); err != nil {
		t.Fatal(err)
	}
	return m, rw, inj
}

// queryParts runs one indexed query against the remote wrapper, asserts
// the full answer arrived, and returns it.
func queryParts(t *testing.T, m *Mediator, lim int) *engine.Result {
	t.Helper()
	res, err := m.Query(`SELECT pid FROM Parts WHERE pid < ` + types.Int(int64(lim)).String())
	if err != nil {
		t.Fatalf("query pid < %d: %v", lim, err)
	}
	if len(res.Rows) != lim {
		t.Fatalf("query pid < %d: rows = %d", lim, len(res.Rows))
	}
	if res.Partial || len(res.Excluded) != 0 {
		t.Fatalf("query pid < %d: unexpectedly partial (excluded %v)", lim, res.Excluded)
	}
	return res
}

// TestFaultMatrix drives every injected failure mode through the full
// mediator pipeline: the system must recover (drops, transient errors,
// delays) or degrade to a partial answer (permanent unavailability) —
// never hang, panic, or wedge the session.
func TestFaultMatrix(t *testing.T) {
	t.Run("drop/recovers", func(t *testing.T) {
		m, rw, _ := startFaultyDeployment(t, netsim.FaultPlan{DropProb: 0.35, Seed: 7})
		for i := 1; i <= 8; i++ {
			queryParts(t, m, i*3)
		}
		st := rw.Stats()
		if st.Redials == 0 {
			t.Errorf("dropped connections should force redials, stats = %+v", st)
		}
	})

	t.Run("error/recovers", func(t *testing.T) {
		// The same queries on a fault-free deployment give each query's
		// time without retries.
		clean, _, _ := startFaultyDeployment(t, netsim.FaultPlan{})
		m, rw, _ := startFaultyDeployment(t, netsim.FaultPlan{ErrorProb: 0.4, Seed: 3})
		retried := 0
		for i := 1; i <= 8; i++ {
			base := queryParts(t, clean, i*3)
			before := rw.Stats().Retries
			got := queryParts(t, m, i*3)
			retries := rw.Stats().Retries - before
			if retries == 0 {
				if got.ElapsedMS != base.ElapsedMS {
					t.Errorf("pid < %d ran without retries in %v ms, fault-free %v ms", i*3, got.ElapsedMS, base.ElapsedMS)
				}
				continue
			}
			retried++
			// Retry backoff is billed to the retried query's own time.
			if got.ElapsedMS <= base.ElapsedMS {
				t.Errorf("pid < %d retried %d times in %v ms, fault-free %v ms: backoff not billed",
					i*3, retries, got.ElapsedMS, base.ElapsedMS)
			}
		}
		st := rw.Stats()
		if retried == 0 {
			t.Errorf("transient errors should force retries, stats = %+v", st)
		}
		if st.Redials != 0 {
			t.Errorf("error responses keep the connection; stats = %+v", st)
		}
	})

	t.Run("delay/billed", func(t *testing.T) {
		m, _, _ := startFaultyDeployment(t, netsim.FaultPlan{DelayMS: 200, JitterMS: 5, Seed: 1})
		res, err := m.Query(`SELECT pid FROM Parts WHERE pid < 10`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		if res.ElapsedMS < 200 {
			t.Errorf("injected delay must appear in measured time, elapsed = %v", res.ElapsedMS)
		}
	})

	t.Run("unavailable/partial", func(t *testing.T) {
		// Request 1 is the registration meta fetch, request 2 the first
		// execute; the wrapper dies permanently on request 3.
		m, _, inj := startFaultyDeployment(t, netsim.FaultPlan{UnavailableAfter: 2})
		queryParts(t, m, 10)

		res, err := m.Query(`SELECT pid FROM Parts WHERE pid < 10`)
		if err != nil {
			t.Fatalf("query against a dead source must degrade, not fail: %v", err)
		}
		if !res.Partial || len(res.Rows) != 0 {
			t.Fatalf("dead source should yield an empty partial answer, got %d rows partial=%v", len(res.Rows), res.Partial)
		}
		if len(res.Excluded) != 1 || res.Excluded[0] != "remoteparts" {
			t.Fatalf("Excluded = %v", res.Excluded)
		}
		if m.Available("remoteparts") {
			t.Error("wrapper should be marked unavailable")
		}
		if rules := m.Registry.WrapperRules("remoteparts"); len(rules) != 0 {
			t.Errorf("cost rules of a dead wrapper must be dropped, still have %d", len(rules))
		}

		// Later queries short-circuit at the engine: the dead source is
		// excluded without touching the transport again.
		reqs := inj.Requests()
		res2, err := m.Query(`SELECT pid FROM Parts WHERE pid < 5`)
		if err != nil {
			t.Fatal(err)
		}
		if !res2.Partial {
			t.Error("later queries stay partial")
		}
		if got := inj.Requests(); got != reqs {
			t.Errorf("known-dead wrapper re-contacted: requests %d -> %d", reqs, got)
		}

		// A join over the missing subtree degrades to an empty partial
		// answer; local-only queries are untouched.
		jr, err := m.Query(`SELECT name FROM Employee, Parts WHERE Employee.id = Parts.owner AND pid < 50`)
		if err != nil {
			t.Fatal(err)
		}
		if !jr.Partial || len(jr.Rows) != 0 {
			t.Errorf("join over dead source: rows = %d partial = %v", len(jr.Rows), jr.Partial)
		}
		lr, err := m.Query(`SELECT dname FROM Dept`)
		if err != nil {
			t.Fatal(err)
		}
		if lr.Partial || len(lr.Rows) != 10 {
			t.Errorf("local query after remote death: rows = %d partial = %v", len(lr.Rows), lr.Partial)
		}
	})

	t.Run("mixed/chaos", func(t *testing.T) {
		// Everything at once (drops, errors, delay, jitter): the answer
		// must stay exact on every query.
		m, rw, _ := startFaultyDeployment(t, netsim.FaultPlan{
			DropProb: 0.2, ErrorProb: 0.2, DelayMS: 10, JitterMS: 5, Seed: 42,
		})
		for i := 1; i <= 10; i++ {
			queryParts(t, m, i*2)
		}
		st := rw.Stats()
		if st.Retries == 0 {
			t.Errorf("chaos plan should have forced interventions, stats = %+v", st)
		}
	})
}

// TestFaultsDisabledIdentical pins the no-fault guarantee: serving through
// a zero-plan injector must be indistinguishable from serving with no
// injector at all — same rows, same virtual time, no transport
// interventions — so enabling the fault machinery cannot perturb
// baseline experiments.
func TestFaultsDisabledIdentical(t *testing.T) {
	type outcome struct {
		rows    int
		elapsed float64
		stats   wrapper.RemoteStats
	}
	run := func(plan netsim.FaultPlan) outcome {
		m, rw, _ := startFaultyDeployment(t, plan)
		res, err := m.Query(`SELECT pid FROM Parts WHERE pid < 40`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial {
			t.Fatal("fault-free query must not be partial")
		}
		return outcome{rows: len(res.Rows), elapsed: res.ElapsedMS, stats: rw.Stats()}
	}
	zero := run(netsim.FaultPlan{})
	seeded := run(netsim.FaultPlan{Seed: 99}) // seed alone injects nothing
	if zero != seeded {
		t.Errorf("zero plan %+v != seeded-but-empty plan %+v", zero, seeded)
	}
	if zero.rows != 40 {
		t.Errorf("rows = %d", zero.rows)
	}
	if zero.stats != (wrapper.RemoteStats{}) {
		t.Errorf("no-fault run should need no healing, stats = %+v", zero.stats)
	}
}
