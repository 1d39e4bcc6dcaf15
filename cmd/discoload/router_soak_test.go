package main

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disco/internal/loadgen"
	"disco/internal/proto"
	"disco/internal/router"
	"disco/internal/serving"
)

// replicaOpts is the per-replica federation configuration of the router
// soak: identical across replicas (the replication premise) and across
// restarts (so a revived replica answers exactly like its predecessor).
func replicaOpts() serving.Options {
	return serving.Options{
		Parts:        soakParts,
		Feedback:     true,
		MaxInFlight:  64,
		QueueTimeout: 2 * time.Second,
	}
}

// startSoakReplica serves one demo federation on addr ("" = ephemeral).
func startSoakReplica(t *testing.T, addr string) (string, *serving.Server) {
	t.Helper()
	fed, err := serving.NewDemoFederation(replicaOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := serving.NewServer(fed, time.Minute)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	// Rebinding the address of a just-closed listener can transiently
	// fail; retry briefly.
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 50 {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv
}

// progress answers through a router and closes a mark's channel once
// that many requests have been answered, so the chaos schedule follows the
// run's progress rather than the wall clock. Holding gate for writing
// pauses the clients between requests.
type progress struct {
	serving.Handler
	gate     sync.RWMutex
	answered atomic.Int64
	marks    map[int64]chan struct{}
}

func (p *progress) Handle(req *proto.Request) *proto.Response {
	p.gate.RLock()
	resp := p.Handler.Handle(req)
	p.gate.RUnlock()
	if ch, ok := p.marks[p.answered.Add(1)]; ok {
		close(ch)
	}
	return resp
}

// TestSoakRouter is the federation chaos gate (`make ci-router`): the
// fixed-seed chaos workload driven through a discorouter-fronted
// replica set of three, over real sockets, under the race detector —
// with one replica killed mid-run and restarted on the same address
// before the run ends. The gate asserts:
//
//   - zero wedged clients: the router's retry/failover discipline rides
//     out the outage without any request hitting the wedge timeout,
//   - zero error responses and zero partial answers: every statement —
//     routed, scattered, or failed over — returns a complete answer,
//   - zero digest mismatches: every sampled result (including
//     scatter-gather merges and post-failover re-executions) matches a
//     fresh single-mediator oracle,
//   - the failover path actually ran (the kill was not a no-op).
func TestSoakRouter(t *testing.T) {
	if testing.Short() {
		t.Skip("soak gate is not a -short test")
	}
	addrs := make([]string, 3)
	srvs := make([]*serving.Server, 3)
	for i := range addrs {
		addrs[i], srvs[i] = startSoakReplica(t, "")
	}
	defer func() {
		for _, srv := range srvs {
			srv.Shutdown(10 * time.Second)
		}
	}()

	rt, err := router.New(router.Config{
		Replicas: []router.ReplicaConfig{
			{Addr: addrs[0]}, {Addr: addrs[1]}, {Addr: addrs[2]},
		},
		Partitions: router.DemoPartitions(soakParts),
		// No background poll: the router must learn of the outage from a
		// failed request, and the chaos schedule polls when it revives.
		PollInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.PollNow()
	const clients, perClient = 128, 20
	killAt, reviveAt := make(chan struct{}), make(chan struct{})
	h := &progress{Handler: rt, marks: map[int64]chan struct{}{
		clients * perClient / 4: killAt,
		clients * perClient / 2: reviveAt,
	}}
	rsrv := serving.NewConnServer(h, time.Minute, rt.Close)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rsrv.Serve(rln)
	defer rsrv.Shutdown(10 * time.Second)

	sched, err := loadgen.Generate(loadgen.Config{
		Seed:        42,
		Clients:     clients,
		Requests:    perClient,
		Templates:   loadgen.DemoTemplates(soakParts),
		Mix:         loadgen.DefaultMix(),
		SampleEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Chaos: kill replica 1 a quarter into the run, bring a fresh replica
	// up on the same address at the halfway mark. The kill pauses the
	// clients and then scatters one statement itself, so the router
	// learns of the outage from a failed shard that fails over, never
	// from a gossip or a poll first. It marks the replica down, reroutes
	// its ring share, then revives it via the stats poll (and re-warms it
	// — the restart resets its catalog epoch history).
	var chaos sync.WaitGroup
	driven := make(chan struct{})
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		select {
		case <-killAt:
		case <-driven:
			return
		}
		h.gate.Lock()
		// Nothing is in flight while the clients are paused: a zero drain
		// only closes the router's idle pooled connections.
		srvs[1].Shutdown(0)
		resp := rt.Handle(&proto.Request{Op: "query", SQL: "SELECT part, passed FROM Inspections WHERE part < 100"})
		h.gate.Unlock()
		if !resp.OK || resp.Partial || resp.Shards != 3 {
			t.Errorf("scatter across the outage: ok=%v partial=%v shards=%d %s",
				resp.OK, resp.Partial, resp.Shards, resp.Error)
		}
		select {
		case <-reviveAt:
		case <-driven:
		}
		_, srvs[1] = startSoakReplica(t, addrs[1])
		rt.PollNow()
	}()

	rep, err := loadgen.Drive(sched, loadgen.DriveOptions{
		Addrs:          []string{rln.Addr().String()},
		RequestTimeout: 60 * time.Second,
	})
	close(driven)
	chaos.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	t.Logf("router soak: ok=%d shed=%d errors=%d partials=%d p50=%.1fms p99=%.1fms qps=%.0f "+
		"routed=%d scattered=%d failovers=%d shed-retries=%d gossips=%d warms=%d",
		rep.OK, rep.Shed, rep.Errors, rep.Partials, rep.P50MS, rep.P99MS, rep.QPS,
		st.Routed, st.Scattered, st.Failovers, st.ShedRetries, st.Gossips, st.Warms)
	for _, ts := range rep.PerTarget {
		t.Logf("router soak: target %-24s ok=%-6d shed=%-5d errors=%-5d p99=%.1fms shards=%d shard-rows=%d",
			ts.Target, ts.OK, ts.Shed, ts.Errors, ts.P99MS, ts.ShardsServed, ts.ShardRows)
	}

	if rep.Wedged != 0 {
		t.Fatalf("%d wedged clients: %v", rep.Wedged, rep.WedgedClients)
	}
	if rep.Requests != clients*perClient {
		t.Errorf("attempted %d requests, schedule had %d", rep.Requests, clients*perClient)
	}
	if rep.Errors != 0 {
		t.Errorf("%d error responses", rep.Errors)
	}
	if rep.Partials != 0 {
		t.Errorf("%d partial answers — failover should cover a single-replica outage", rep.Partials)
	}
	if rep.OK < rep.Requests/2 {
		t.Errorf("only %d/%d requests succeeded (shed=%d)", rep.OK, rep.Requests, rep.Shed)
	}
	if rep.P99MS > 20000 {
		t.Errorf("p99 = %.1f ms exceeds the 20s soak bound", rep.P99MS)
	}
	if st.Failovers == 0 {
		t.Error("the killed replica never forced a failover — the outage was a no-op")
	}
	if st.Scattered == 0 {
		t.Error("no statement took the scatter-gather path")
	}
	// Shard attribution: the scan work behind every scatter-gather merge
	// is credited to real replica addresses, never to the synthetic
	// rollup targets.
	shardCredits := 0
	for _, ts := range rep.PerTarget {
		if ts.ShardsServed == 0 {
			continue
		}
		if strings.HasPrefix(ts.Target, "scatter:") || ts.Target == "gossip" {
			t.Errorf("shard work credited to synthetic target %q", ts.Target)
		}
		shardCredits += ts.ShardsServed
	}
	if shardCredits == 0 {
		t.Error("scatter-gather ran but no shard work was attributed to any replica")
	}

	// Oracle pass: every sampled answer — single-replica, scattered, or
	// re-executed after failover — must match a fresh, feedback-off,
	// single-mediator replay digest-for-digest.
	if len(rep.Samples) == 0 {
		t.Fatal("no oracle samples recorded")
	}
	oracle, err := serving.NewDemoFederation(serving.Options{Parts: soakParts})
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[string]uint64)
	mismatches := 0
	for _, s := range rep.Samples {
		want, ok := digests[s.SQL]
		if !ok {
			res, err := oracle.Med.Query(s.SQL)
			if err != nil {
				t.Fatalf("oracle: %s: %v", s.SQL, err)
			}
			want = loadgen.HashRows(res.Rows)
			digests[s.SQL] = want
		}
		if s.Hash != want {
			mismatches++
			t.Errorf("result mismatch: client %d request %d %q: digest %x, oracle %x (%d rows)",
				s.Client, s.Request, s.SQL, s.Hash, want, s.Rows)
		}
	}
	t.Logf("oracle: %d samples over %d distinct statements, %d mismatches",
		len(rep.Samples), len(digests), mismatches)
}
