package serving

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"disco/internal/algebra"
	"disco/internal/mediator"
	"disco/internal/objstore"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// timing is one execution's virtual time: the statement's ElapsedMS and
// each submit's profiled time in plan order.
type timing struct {
	elapsed float64
	submits []float64
}

func (a timing) sameBits(b timing) bool {
	if math.Float64bits(a.elapsed) != math.Float64bits(b.elapsed) || len(a.submits) != len(b.submits) {
		return false
	}
	for i := range a.submits {
		if math.Float64bits(a.submits[i]) != math.Float64bits(b.submits[i]) {
			return false
		}
	}
	return true
}

// addRemoteParts serves a one-collection object store through
// wrapper.Serve and registers it with the mediator as "remoteparts".
func addRemoteParts(t *testing.T, m *mediator.Mediator) {
	t.Helper()
	store := objstore.Open(objstore.DefaultConfig())
	parts, err := store.CreateCollection("Parts", types.NewSchema(
		types.Field{Name: "pid", Collection: "Parts", Type: types.KindInt},
	), 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := parts.Insert(types.Row{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := parts.CreateIndex("pid", true); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go wrapper.Serve(ln, wrapper.NewObjWrapper("remoteparts", store))
	rw, err := wrapper.DialRemote(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rw.Close() })
	if err := m.Register(rw); err != nil {
		t.Fatal(err)
	}
}

// TestExecutionTimeIsolation: on a warm federation, a statement's
// ElapsedMS and each of its submits' profiled times are bit-identical
// when it runs alone, on a sequential repeat, and beside a goroutine
// looping a full read of Inspections. One statement per read path: an
// object-store index range and full read, a relational hash probe and
// full read, a file read, and a remote wrapper's submit through
// wrapper.Serve. The background loop reads the file store, which has no
// buffer, so no shared buffer state can explain a difference; a loop over
// the same buffered store could legitimately move page hits between
// executions. Each execution meters its own time, so another query's
// charges never land in it.
func TestExecutionTimeIsolation(t *testing.T) {
	fed, err := NewDemoFederation(Options{Parts: 2000})
	if err != nil {
		t.Fatal(err)
	}
	m := fed.Med
	addRemoteParts(t, m)
	stmts := []string{
		`SELECT id, x FROM AtomicParts WHERE AtomicParts.id < 50`,     // objstore index range
		`SELECT id, x FROM AtomicParts WHERE AtomicParts.x < 3000`,    // objstore full read
		`SELECT sid, sname FROM Suppliers WHERE Suppliers.sid = 5`,    // relstore hash probe
		`SELECT sid, sname FROM Suppliers WHERE Suppliers.region = 3`, // relstore full read
		`SELECT part, passed FROM Inspections WHERE Inspections.part < 50`,
		`SELECT pid FROM Parts WHERE Parts.pid < 25`, // remote submit
	}
	run := func(p *mediator.Prepared) timing {
		res, err := m.ExecutePlan(p)
		if err != nil {
			t.Fatalf("%s: %v", p.SQL, err)
		}
		tm := timing{elapsed: res.ElapsedMS}
		p.Plan.Walk(func(n *algebra.Node) bool {
			if n.Kind != algebra.OpSubmit {
				return true
			}
			tm.submits = append(tm.submits, res.Profile.ByNode[n].OwnMS)
			return false
		})
		return tm
	}
	prepared := make([]*mediator.Prepared, len(stmts))
	alone := make([]timing, len(stmts))
	for i, sql := range stmts {
		p, err := m.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = p
		run(p) // warm the buffers
		alone[i] = run(p)
		if len(alone[i].submits) == 0 || alone[i].elapsed <= 0 {
			t.Fatalf("%s: timing %+v", sql, alone[i])
		}
		if again := run(p); !again.sameBits(alone[i]) {
			t.Errorf("%s: sequential repeat %+v, alone %+v", sql, again, alone[i])
		}
	}

	var stop atomic.Bool
	var loops atomic.Int64
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := m.Query(`SELECT part, passed FROM Inspections`); err != nil {
				t.Errorf("background read: %v", err)
				return
			}
			if loops.Add(1) == 1 {
				close(started)
			}
		}
	}()
	<-started
	for round := 0; round < 10; round++ {
		for i, p := range prepared {
			if got := run(p); !got.sameBits(alone[i]) {
				t.Errorf("%s, round %d beside the loop: %+v, alone %+v", p.SQL, round, got, alone[i])
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := loops.Load(); n < 2 {
		t.Errorf("the background loop ran %d times", n)
	}
}
