package router

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"disco/internal/loadgen"
	"disco/internal/proto"
	"disco/internal/resultcache"
	"disco/internal/serving"
	"disco/internal/sqlparser"
)

const testParts = 800

// startReplica brings up one demo federation replica on an ephemeral
// TCP port. All replicas built from the same options hold identical
// data (NewDemoFederation is deterministic), which is the replication
// premise of the scatter tier.
func startReplica(t *testing.T, opts serving.Options) (string, *serving.Server) {
	t.Helper()
	return serveReplica(t, opts, "127.0.0.1:0")
}

// serveReplica is startReplica on a given listen address — a restart
// reuses the address the router already knows.
func serveReplica(t *testing.T, opts serving.Options, addr string) (string, *serving.Server) {
	t.Helper()
	if opts.Parts == 0 {
		opts.Parts = testParts
	}
	fed, err := serving.NewDemoFederation(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := serving.NewServer(fed, time.Minute)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(2 * time.Second) })
	return ln.Addr().String(), srv
}

func startRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func mustQuery(t *testing.T, rt *Router, sql string) *proto.Response {
	t.Helper()
	resp := rt.Handle(&proto.Request{Op: "query", SQL: sql})
	if !resp.OK {
		t.Fatalf("query %q: %s", sql, resp.Error)
	}
	return resp
}

// TestNewRejectsDuplicateReplicas: a replica address listed twice would
// get two pools and two places in every order, and each gossip would
// reach it twice, so New refuses it.
func TestNewRejectsDuplicateReplicas(t *testing.T) {
	cases := []struct {
		name  string
		addrs []string
		ok    bool
	}{
		{"distinct", []string{"a:1", "b:1", "c:1"}, true},
		{"pair", []string{"a:1", "a:1"}, false},
		{"apart", []string{"a:1", "b:1", "a:1"}, false},
		{"none", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reps []ReplicaConfig
			for i, a := range tc.addrs {
				reps = append(reps, ReplicaConfig{Addr: a, Capacity: float64(i + 1)})
			}
			rt, err := New(Config{Replicas: reps, PollInterval: -1})
			if err == nil {
				rt.Close()
			}
			if (err == nil) != tc.ok {
				t.Errorf("New(%v): err = %v, want ok = %v", tc.addrs, err, tc.ok)
			}
		})
	}
}

// TestRouterAffinityAndFailover: repeated statements stick to one
// replica (plan affinity), distinct statements spread, a killed
// replica's statements fail over without a client-visible error, and
// once a poll sees the replica back they route home again.
func TestRouterAffinityAndFailover(t *testing.T) {
	addrs := make([]string, 3)
	srvs := make([]*serving.Server, 3)
	for i := range addrs {
		addrs[i], srvs[i] = startReplica(t, serving.Options{})
	}
	// A stepping virtual clock (see TestRouterCostBiasAgainstSlowReplica)
	// keeps every replica's measured EWMA identical, so the per-request
	// cost escape never overrides affinity: the killed replica's
	// statement must reach it, fail, and take the counted failover path —
	// under the wall clock, scheduler noise could inflate the home
	// replica's EWMA past 2x the cheapest and dodge the dead replica
	// without a failover.
	var tick atomic.Int64
	now := func() time.Time { return time.Unix(0, tick.Add(500_000)) }
	rt := startRouter(t, Config{
		Replicas:     []ReplicaConfig{{Addr: addrs[0]}, {Addr: addrs[1]}, {Addr: addrs[2]}},
		PollInterval: -1,
		Now:          now,
	})

	const hotSQL = `SELECT sname FROM Suppliers WHERE region = 3`
	first := mustQuery(t, rt, hotSQL)
	if len(first.Rows) != 42 {
		t.Fatalf("rows = %d, want 42", len(first.Rows))
	}
	if first.Replica == "" {
		t.Fatal("response missing replica attribution")
	}
	for i := 0; i < 9; i++ {
		if resp := mustQuery(t, rt, hotSQL); resp.Replica != first.Replica {
			t.Fatalf("repeat %d routed to %s, first went to %s — affinity broken", i, resp.Replica, first.Replica)
		}
	}

	seen := make(map[string]bool)
	for i := 0; i < 60; i++ {
		resp := mustQuery(t, rt, fmt.Sprintf(`SELECT docId FROM AtomicParts WHERE AtomicParts.id = %d`, i))
		seen[resp.Replica] = true
	}
	if len(seen) < 2 {
		t.Errorf("60 distinct statements all routed to %v — no spread", seen)
	}

	// Kill the hot statement's home replica; the statement must fail
	// over to a survivor, and the second failure marks the home down.
	home := -1
	for i, a := range addrs {
		if a == first.Replica {
			home = i
			srvs[i].Shutdown(time.Second)
		}
	}
	for i := 0; i < 3; i++ {
		resp := mustQuery(t, rt, hotSQL)
		if resp.Replica == first.Replica {
			t.Fatalf("statement still attributed to the killed replica %s", first.Replica)
		}
		if len(resp.Rows) != 42 {
			t.Errorf("failover answer has %d rows, want 42", len(resp.Rows))
		}
	}
	st := rt.Stats()
	if st.Failovers == 0 {
		t.Error("failover counter did not move")
	}
	if !st.Replicas[home].Down {
		t.Error("killed replica not marked down")
	}

	// Restart the home replica on its address: the next poll revives it
	// and the hot statement routes back to it.
	serveReplica(t, serving.Options{}, first.Replica)
	rt.PollNow()
	if rt.Stats().Replicas[home].Down {
		t.Fatal("restarted replica still down after a poll")
	}
	if resp := mustQuery(t, rt, hotSQL); resp.Replica != first.Replica {
		t.Errorf("after revival the statement went to %s, want its home %s", resp.Replica, first.Replica)
	}

	if resp := rt.Handle(&proto.Request{Op: "nonsense"}); resp.OK {
		t.Error("unknown op succeeded")
	}
	// Drop the router's pooled connections before the cleanups run, so
	// the restarted replica's shutdown has no idle connection to drain.
	rt.Close()
}

// TestRouterCostBiasAgainstSlowReplica pins the per-request cost
// escape: a replica the router has measured at 25ms must receive a
// disproportionately small share of subsequent distinct statements,
// though it is first in the rendezvous order of about a third of them.
// The latency picture is injected through Config.Now — a stepping
// virtual clock makes every real exchange observe exactly the step, and
// the slow replica's EWMA is fed directly — so the test is
// deterministic on any CI load, unlike its earlier incarnation that
// slept 25ms of wall time behind a TCP proxy and raced the scheduler.
func TestRouterCostBiasAgainstSlowReplica(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i], _ = startReplica(t, serving.Options{})
	}

	// Every Now() call advances half a millisecond, and exchange calls
	// Now exactly twice per request — so with sequential driving every
	// replica measures a uniform, deterministic 0.5ms.
	var tick atomic.Int64
	now := func() time.Time { return time.Unix(0, tick.Add(500_000)) }

	rt := startRouter(t, Config{
		Replicas:     []ReplicaConfig{{Addr: addrs[0]}, {Addr: addrs[1]}, {Addr: addrs[2]}},
		PollInterval: -1,
		Now:          now,
	})

	// Warm-up: enough distinct statements that every replica's EWMA has
	// data, then make replica 1 look 25ms slow — the picture a congested
	// link would have painted.
	for i := 0; i < 60; i++ {
		rt.Handle(&proto.Request{Op: "query",
			SQL: fmt.Sprintf(`SELECT docId FROM AtomicParts WHERE AtomicParts.id = %d`, i)})
	}
	for i := 0; i < 40; i++ {
		rt.replicas[1].observe(25)
	}
	rt.PollNow()

	st := rt.Stats()
	if slow := st.Replicas[1]; slow.EwmaMS < 20 {
		t.Errorf("slow replica EWMA %.2fms did not register the injected 25ms", slow.EwmaMS)
	}

	// Measurement phase: fresh distinct statements; the slow replica
	// must receive proportionally less work than a fair third, because
	// the cost escape re-routes the statements it is first in line for.
	for i := 0; i < 400; i++ {
		rt.Handle(&proto.Request{Op: "query",
			SQL: fmt.Sprintf(`SELECT docId FROM AtomicParts WHERE AtomicParts.id = %d`, 1000+i)})
	}
	after := rt.Stats()
	var total, slowRouted int64
	for i, rs := range after.Replicas {
		routed := rs.Routed - st.Replicas[i].Routed
		total += routed
		if i == 1 {
			slowRouted = routed
		}
	}
	if total == 0 {
		t.Fatal("no statements routed in the measurement phase")
	}
	share := float64(slowRouted) / float64(total)
	if share > 0.22 {
		t.Errorf("slow replica received %.1f%% of routed work, want well under a fair 33%%", 100*share)
	}
}

// TestRouterGossipReplicatesEpochAndWarms: an epoch-bumping op through
// the router reaches every replica, and the router re-warms its hot
// statements into the flushed caches.
func TestRouterGossipReplicatesEpochAndWarms(t *testing.T) {
	opts := serving.Options{ResultCache: resultcache.Config{Enabled: true}}
	addr0, srv0 := startReplica(t, opts)
	addr1, srv1 := startReplica(t, opts)
	rt := startRouter(t, Config{
		Replicas:     []ReplicaConfig{{Addr: addr0}, {Addr: addr1}},
		PollInterval: -1,
	})

	const hotSQL = `SELECT sname FROM Suppliers WHERE region = 3`
	for i := 0; i < 3; i++ {
		mustQuery(t, rt, hotSQL)
	}
	epochBefore := srv0.Stats().Epoch

	resp := rt.Handle(&proto.Request{Op: "reregister", Arg: "oo7"})
	if !resp.OK {
		t.Fatalf("reregister: %s", resp.Error)
	}
	if !strings.Contains(resp.Text, "gossiped to 2/2") {
		t.Errorf("gossip fanout not reported: %q", resp.Text)
	}
	for i, srv := range []*serving.Server{srv0, srv1} {
		if e := srv.Stats().Epoch; e != epochBefore+1 {
			t.Errorf("replica %d epoch %d, want %d — gossip missed it", i, e, epochBefore+1)
		}
	}
	st := rt.Stats()
	if st.Gossips != 1 {
		t.Errorf("gossips = %d, want 1", st.Gossips)
	}
	if st.Warms == 0 {
		t.Error("no hot statements were re-warmed after the gossip")
	}
	// The warm landed in the statement's owner: its plan cache is
	// populated again even though the reregistration just flushed it.
	warmed := false
	for _, srv := range []*serving.Server{srv0, srv1} {
		if srv.Stats().Mediator.PlanCacheEntries > 0 {
			warmed = true
		}
	}
	if !warmed {
		t.Error("no replica has a warmed plan cache after gossip")
	}

	if resp := rt.Handle(&proto.Request{Op: "reregister", Arg: "nope"}); resp.OK {
		t.Error("gossiping an invalid reregister succeeded")
	}
	if resp := mustQuery(t, rt, hotSQL); len(resp.Rows) != 42 {
		t.Errorf("post-gossip query: %d rows, want 42", len(resp.Rows))
	}
}

// TestScatterGatherMatchesOracle: eligible scans scatter across the
// replica set and the merged answer is digest-identical to a single
// mediator's; ineligible statements route normally; a killed replica's
// shards fail over with no partial answer.
func TestScatterGatherMatchesOracle(t *testing.T) {
	oracleFed, err := serving.NewDemoFederation(serving.Options{Parts: testParts})
	if err != nil {
		t.Fatal(err)
	}
	oracle := serving.NewServer(oracleFed, time.Minute)
	defer oracle.Shutdown(time.Second)

	addrs := make([]string, 3)
	srvs := make([]*serving.Server, 3)
	for i := range addrs {
		addrs[i], srvs[i] = startReplica(t, serving.Options{})
	}
	rt := startRouter(t, Config{
		Replicas:     []ReplicaConfig{{Addr: addrs[0]}, {Addr: addrs[1]}, {Addr: addrs[2]}},
		Partitions:   DemoPartitions(testParts),
		PollInterval: -1,
	})

	scans := []string{
		`SELECT part, passed FROM Inspections WHERE part < 300`,
		`SELECT x, y FROM AtomicParts WHERE AtomicParts.id < 85`,
		`SELECT sname FROM Suppliers WHERE region = 3`,
	}
	for _, sql := range scans {
		got := mustQuery(t, rt, sql)
		want := oracle.Handle(&proto.Request{Op: "query", SQL: sql})
		if !want.OK {
			t.Fatalf("oracle %q: %s", sql, want.Error)
		}
		if !strings.HasPrefix(got.Replica, "scatter:") {
			t.Errorf("%q: replica = %q, want scatter attribution", sql, got.Replica)
		}
		if got.Shards != 3 {
			t.Errorf("%q: shards = %d, want 3", sql, got.Shards)
		}
		// Every shard is attributed to the real replica that served it,
		// and the attributed rows add up to the merged answer.
		if len(got.ShardDetail) != 3 {
			t.Errorf("%q: %d shard details, want 3", sql, len(got.ShardDetail))
		}
		shardRows := 0
		for _, sd := range got.ShardDetail {
			shardRows += sd.Rows
			found := false
			for _, a := range addrs {
				if sd.Replica == a {
					found = true
				}
			}
			if !found {
				t.Errorf("%q: shard attributed to unknown replica %q", sql, sd.Replica)
			}
		}
		if shardRows != len(got.Rows) {
			t.Errorf("%q: shard details account for %d rows, merged answer has %d", sql, shardRows, len(got.Rows))
		}
		if got.Partial {
			t.Errorf("%q: partial answer with all replicas up", sql)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Errorf("%q: %d rows, oracle has %d", sql, len(got.Rows), len(want.Rows))
		}
		if loadgen.HashRows(got.Rows) != loadgen.HashRows(want.Rows) {
			t.Errorf("%q: scatter digest diverged from the oracle", sql)
		}
	}

	// Point lookup on the partition column: plan-affine, not scattered.
	point := mustQuery(t, rt, `SELECT docId FROM AtomicParts WHERE AtomicParts.id = 5`)
	if strings.HasPrefix(point.Replica, "scatter:") {
		t.Error("point lookup was scattered")
	}
	// Aggregation: needs a global view, not scattered.
	group := mustQuery(t, rt, `SELECT region, count(*) AS n FROM Suppliers WHERE sid < 400 GROUP BY region`)
	if strings.HasPrefix(group.Replica, "scatter:") {
		t.Error("grouped aggregate was scattered")
	}

	// Kill one replica: its shards rotate to survivors and the answer
	// stays exact — degradation to Partial is reserved for shards that
	// fail on every live replica.
	srvs[2].Shutdown(time.Second)
	sql := scans[0]
	got := mustQuery(t, rt, sql)
	want := oracle.Handle(&proto.Request{Op: "query", SQL: sql})
	if got.Partial {
		t.Error("partial answer though two replicas could cover every shard")
	}
	if loadgen.HashRows(got.Rows) != loadgen.HashRows(want.Rows) {
		t.Error("post-kill scatter digest diverged from the oracle")
	}
	shardRows := 0
	for _, sd := range got.ShardDetail {
		shardRows += sd.Rows
	}
	if shardRows != len(got.Rows) {
		t.Errorf("post-kill shard details account for %d rows, merged answer has %d", shardRows, len(got.Rows))
	}
	if st := rt.Stats(); st.Failovers == 0 {
		t.Error("shard failover did not count")
	}
}

// TestScatterExcludedCanonical pins the degraded-answer contract: the
// exclusion list a scatter merge reports is deduped and sorted, however
// many shards named the same replica and in whatever order the shard
// goroutines completed.
func TestScatterExcludedCanonical(t *testing.T) {
	got := canonExcluded([]string{"rep:9002", "rep:9000", "rep:9002", "rep:9001", "rep:9000", "rep:9002"})
	want := "rep:9000,rep:9001,rep:9002"
	if strings.Join(got, ",") != want {
		t.Errorf("canonExcluded = %q, want %q", strings.Join(got, ","), want)
	}
	if canonExcluded(nil) != nil {
		t.Error("canonExcluded(nil) != nil")
	}
	// Already-canonical input is a fixed point.
	again := canonExcluded(got)
	if strings.Join(again, ",") != want {
		t.Errorf("canonExcluded not idempotent: %q", strings.Join(again, ","))
	}
}

// TestShardSQLBoundsAndEligibility: unit coverage of the shard
// rewriting and the eligibility gate.
func TestShardSQLBoundsAndEligibility(t *testing.T) {
	parts := DemoPartitions(900)
	q, err := sqlparser.Parse(`SELECT part, passed FROM Inspections WHERE part < 300`)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := scatterEligible(q, parts)
	if !ok || p.Collection != "Inspections" {
		t.Fatalf("range scan not eligible (part=%+v ok=%v)", p, ok)
	}
	shards := []string{shardSQL(q, p, 0, 3), shardSQL(q, p, 1, 3), shardSQL(q, p, 2, 3)}
	if strings.Contains(shards[0], ">=") {
		t.Errorf("first shard must keep its lower bound open: %q", shards[0])
	}
	if !strings.Contains(shards[1], "part >= 300") || !strings.Contains(shards[1], "part < 600") {
		t.Errorf("middle shard bounds wrong: %q", shards[1])
	}
	if !strings.Contains(shards[2], "part >= 600") || strings.Contains(shards[2], "part < 900") {
		t.Errorf("last shard must keep its upper bound open: %q", shards[2])
	}
	for _, s := range shards {
		if _, err := sqlparser.Parse(s); err != nil {
			t.Errorf("shard SQL does not re-parse: %q: %v", s, err)
		}
		if !strings.Contains(s, "part < 300") {
			t.Errorf("shard dropped the original predicate: %q", s)
		}
	}

	ineligible := []string{
		`SELECT docId FROM AtomicParts WHERE AtomicParts.id = 5`,            // point on partition column
		`SELECT DISTINCT part FROM Inspections`,                             // DISTINCT
		`SELECT region, count(*) AS n FROM Suppliers GROUP BY region`,       // aggregate
		`SELECT sname FROM Suppliers ORDER BY sname`,                        // ORDER BY
		`SELECT sname, passed FROM Suppliers, Inspections WHERE part = sid`, // join
		`SELECT doc FROM Documents WHERE id < 5`,                            // unpartitioned collection
	}
	for _, sql := range ineligible {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, ok := scatterEligible(q, parts); ok {
			t.Errorf("%q must not scatter", sql)
		}
	}
	eligible := []string{
		`SELECT part, passed FROM Inspections WHERE part < 10`,
		`SELECT sname FROM Suppliers WHERE region = 3`, // equality, but not on the partition column
		`SELECT x, y FROM AtomicParts`,                 // full scan
	}
	for _, sql := range eligible {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, ok := scatterEligible(q, parts); !ok {
			t.Errorf("%q must scatter", sql)
		}
	}
}
