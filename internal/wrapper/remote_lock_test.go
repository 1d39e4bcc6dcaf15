package wrapper

import (
	"math"
	"sync"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// blockingWrapper delegates to a real wrapper but parks every Execute
// until released, so tests can hold an execute open on the server.
type blockingWrapper struct {
	Wrapper
	entered chan struct{} // receives one value per Execute that started
	release chan struct{} // closed to let executes proceed
}

func (b *blockingWrapper) Execute(plan *algebra.Node) (*Result, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Wrapper.Execute(plan)
}

// TestMetaNotSerializedBehindExecute: "meta" (and "ping") must not queue
// behind an in-flight "execute". A blocked execute on one connection must
// not stall a fresh dial — which performs a meta roundtrip — on another.
func TestMetaNotSerializedBehindExecute(t *testing.T) {
	backend := newObjWrapper(t, 50)
	bw := &blockingWrapper{
		Wrapper: backend,
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	addr := startRemote(t, bw)

	rw, err := DialRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	plan := algebra.Select(algebra.Scan("obj1", "Employee"),
		algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "id"}, stats.CmpLT, types.Int(5)))
	if err := algebra.Resolve(plan, wrapperSchemaSource{rw}); err != nil {
		t.Fatal(err)
	}

	execDone := make(chan error, 1)
	go func() {
		_, err := rw.Execute(plan)
		execDone <- err
	}()
	<-bw.entered // the execute is now parked on the server

	// A second connection's dial-time meta must complete while the
	// execute is parked.
	dialed := make(chan error, 1)
	go func() {
		rw2, err := DialRemote(addr)
		if err == nil {
			rw2.Close()
		}
		dialed <- err
	}()
	select {
	case err := <-dialed:
		if err != nil {
			t.Fatalf("meta during blocked execute: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("meta request queued behind the parked execute")
	}

	close(bw.release)
	if err := <-execDone; err != nil {
		t.Fatalf("released execute: %v", err)
	}
}

// TestExecutesRunConcurrently parks two executes on two connections and
// requires both to have entered the backend before either is released:
// the server takes no lock across an execute. Each response's virtual
// time equals the one the same subplan takes alone on the warm store.
func TestExecutesRunConcurrently(t *testing.T) {
	backend := newObjWrapper(t, 300)
	bw := &blockingWrapper{
		Wrapper: backend,
		entered: make(chan struct{}, 2),
		release: make(chan struct{}),
	}
	addr := startRemote(t, bw)
	limits := []int64{10, 200}
	alone := make([]float64, len(limits))
	plans := make([]*algebra.Node, len(limits))
	for i, n := range limits {
		plans[i] = algebra.Select(algebra.Scan("obj1", "Employee"),
			algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "id"}, stats.CmpLT, types.Int(n)))
		if err := algebra.Resolve(plans[i], wrapperSchemaSource{backend}); err != nil {
			t.Fatal(err)
		}
		if _, err := backend.Execute(plans[i]); err != nil { // warm the pool
			t.Fatal(err)
		}
		res, err := backend.Execute(plans[i])
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = res.VirtualMS
	}

	results := make([]*Result, len(limits))
	errs := make([]error, len(limits))
	var wg sync.WaitGroup
	for i := range limits {
		rw, err := DialRemote(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer rw.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = rw.Execute(plans[i])
		}()
	}
	for range limits {
		select {
		case <-bw.entered:
		case <-time.After(5 * time.Second):
			close(bw.release)
			wg.Wait()
			t.Fatal("an execute queued behind another one parked on the server")
		}
	}
	close(bw.release)
	wg.Wait()
	for i, n := range limits {
		if errs[i] != nil {
			t.Fatalf("id < %d: %v", n, errs[i])
		}
		if int64(len(results[i].Rows)) != n {
			t.Errorf("id < %d: %d rows", n, len(results[i].Rows))
		}
		if math.Float64bits(results[i].VirtualMS) != math.Float64bits(alone[i]) {
			t.Errorf("id < %d: %v virtual ms beside another execute, %v alone", n, results[i].VirtualMS, alone[i])
		}
	}
}

// TestConcurrentExecutesSerializeOnClock (named for the server-wide lock
// executes once took) drives executes from several connections at once:
// the server must stay race-free (run under -race) and every connection
// must get its full result set.
func TestConcurrentExecutesSerializeOnClock(t *testing.T) {
	backend := newObjWrapper(t, 300)
	addr := startRemote(t, backend)

	const conns = 4
	var wg sync.WaitGroup
	errs := make([]error, conns)
	rows := make([]int, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rw, err := DialRemote(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer rw.Close()
			plan := algebra.Select(algebra.Scan("obj1", "Employee"),
				algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "id"}, stats.CmpLT, types.Int(10)))
			if err := algebra.Resolve(plan, wrapperSchemaSource{rw}); err != nil {
				errs[i] = err
				return
			}
			for k := 0; k < 5; k++ {
				res, err := rw.Execute(plan)
				if err != nil {
					errs[i] = err
					return
				}
				rows[i] += len(res.Rows)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < conns; i++ {
		if errs[i] != nil {
			t.Fatalf("conn %d: %v", i, errs[i])
		}
		if rows[i] != 50 {
			t.Errorf("conn %d: %d rows, want 50", i, rows[i])
		}
	}
}
