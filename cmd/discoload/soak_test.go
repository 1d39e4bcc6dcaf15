package main

import (
	"net"
	"testing"
	"time"

	"disco/internal/loadgen"
	"disco/internal/resultcache"
	"disco/internal/serving"
)

// soakParts keeps the demo federation small enough that the race
// detector's overhead stays affordable at 256 clients.
const soakParts = 1500

// TestSoak is the CI soak gate (`make ci-soak`): a fixed-seed workload
// of 256 concurrent clients — zipf-skewed hot statements, ad-hoc
// statements, explains, catalog re-registrations and link perturbations
// — driven over real sockets against an in-process demo server, under
// the race detector. The gate asserts:
//
//   - zero wedged connections (no request ever hit the wedge timeout),
//   - zero error responses and zero partial answers,
//   - every sampled result matches a sequential oracle re-execution on
//     a fresh, feedback-off federation (order-insensitive digest),
//   - p99 latency under a deliberately generous bound — a liveness
//     backstop, not a performance SLO.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak gate is not a -short test")
	}
	fed, err := serving.NewDemoFederation(serving.Options{
		Parts:        soakParts,
		Feedback:     true,
		MaxInFlight:  64,
		QueueTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serving.NewServer(fed, time.Minute)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(10 * time.Second)

	const clients, perClient = 256, 20
	sched, err := loadgen.Generate(loadgen.Config{
		Seed:      42,
		Clients:   clients,
		Requests:  perClient,
		Templates: loadgen.DemoTemplates(soakParts),
		Mix:       loadgen.DefaultMix(),
		// Sampling is per client; with ~14 queries per client a 7-spacing
		// yields about two oracle samples each.
		SampleEvery: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.Drive(sched, loadgen.DriveOptions{
		Addrs:          []string{ln.Addr().String()},
		RequestTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: ok=%d shed=%d errors=%d partials=%d p50=%.1fms p99=%.1fms qps=%.0f elapsed=%.1fs",
		rep.OK, rep.Shed, rep.Errors, rep.Partials, rep.P50MS, rep.P99MS, rep.QPS, rep.ElapsedS)

	// No wedged connections: every client completed its full schedule.
	if rep.Wedged != 0 {
		t.Fatalf("%d wedged clients: %v", rep.Wedged, rep.WedgedClients)
	}
	if rep.Requests != clients*perClient {
		t.Errorf("attempted %d requests, schedule had %d", rep.Requests, clients*perClient)
	}
	// Every statement the generator emits is valid against the demo
	// federation, and nothing in the chaos mix takes a wrapper down, so
	// errors and partial answers both gate at zero.
	if rep.Errors != 0 {
		t.Errorf("%d error responses", rep.Errors)
	}
	if rep.Partials != 0 {
		t.Errorf("%d partial answers without an injected outage", rep.Partials)
	}
	if rep.OK < rep.Requests/2 {
		t.Errorf("only %d/%d requests succeeded (shed=%d)", rep.OK, rep.Requests, rep.Shed)
	}
	// Liveness backstop, far above any healthy run.
	if rep.P99MS > 20000 {
		t.Errorf("p99 = %.1f ms exceeds the 20s soak bound", rep.P99MS)
	}
	if len(rep.Samples) == 0 {
		t.Fatal("no oracle samples recorded")
	}

	// Server-side counters agree with the client-side view.
	stats := srv.Stats()
	if stats.Mediator.Shed != int64(rep.Shed) {
		t.Errorf("server shed %d, clients saw %d", stats.Mediator.Shed, rep.Shed)
	}
	if stats.Mediator.QueryErrors != 0 {
		t.Errorf("server counted %d execution errors", stats.Mediator.QueryErrors)
	}
	if stats.Mediator.PlanCacheHits == 0 {
		t.Error("hot statements never hit the plan cache")
	}

	// Oracle pass: replay each distinct sampled statement sequentially on
	// a fresh federation with feedback off — same data, no learned
	// corrections, no concurrency — and compare the order-insensitive
	// result digests. Plans may differ (the loaded server's model drifted
	// under feedback); the row multisets must not.
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

// TestSoakExecSpill is the vectorized-engine soak gate (`make ci-exec`):
// the fixed-seed chaos workload against a server whose mediator runs
// under a deliberately tiny spill budget, so hash joins and aggregations
// Grace-partition to disk mid-serving, under the race detector. On top
// of the TestSoak liveness invariants it asserts the execution mode is
// invisible to clients: every sampled result digest matches a
// spill-free, feedback-off oracle re-execution. Digests are
// order-insensitive, which is exactly the guarantee spilled execution
// keeps (multiset-identical, bit-exact values).
func TestSoakExecSpill(t *testing.T) {
	if testing.Short() {
		t.Skip("soak gate is not a -short test")
	}
	fed, err := serving.NewDemoFederation(serving.Options{
		Parts:        soakParts,
		Feedback:     true,
		MaxInFlight:  64,
		QueueTimeout: 2 * time.Second,
		ExecMemBytes: 64 << 10, // tiny: force spills at soak scale
		ExecSpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serving.NewServer(fed, time.Minute)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(10 * time.Second)

	const clients, perClient = 128, 20
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
	rep, err := loadgen.Drive(sched, loadgen.DriveOptions{
		Addrs:          []string{ln.Addr().String()},
		RequestTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exec soak: ok=%d shed=%d errors=%d partials=%d p50=%.1fms p99=%.1fms qps=%.0f",
		rep.OK, rep.Shed, rep.Errors, rep.Partials, rep.P50MS, rep.P99MS, rep.QPS)

	if rep.Wedged != 0 {
		t.Fatalf("%d wedged clients: %v", rep.Wedged, rep.WedgedClients)
	}
	if rep.Errors != 0 {
		t.Errorf("%d error responses", rep.Errors)
	}
	if rep.Partials != 0 {
		t.Errorf("%d partial answers without an injected outage", rep.Partials)
	}
	if stats := srv.Stats(); stats.Mediator.QueryErrors != 0 {
		t.Errorf("server counted %d execution errors", stats.Mediator.QueryErrors)
	}
	if rep.P99MS > 20000 {
		t.Errorf("p99 = %.1f ms exceeds the 20s soak bound", rep.P99MS)
	}
	if len(rep.Samples) == 0 {
		t.Fatal("no oracle samples recorded")
	}

	// Oracle pass: a fresh federation with the vectorized engine in its
	// default spill-free mode and feedback off. Spilled answers must be
	// indistinguishable digest-for-digest.
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

// TestSoakResultCache is the result-cache soak gate (`make
// ci-resultcache`): the same fixed-seed chaos workload — zipf-hot
// statements, re-registrations, link perturbations — against a server
// with the semantic result cache enabled. On top of the TestSoak
// invariants it asserts the cache actually works under churn: a material
// hit rate on the hot pool, and zero oracle-digest mismatches — a cached
// answer must be indistinguishable from a re-execution even while
// re-registration keeps invalidating entries mid-run.
func TestSoakResultCache(t *testing.T) {
	if testing.Short() {
		t.Skip("soak gate is not a -short test")
	}
	fed, err := serving.NewDemoFederation(serving.Options{
		Parts:        soakParts,
		Feedback:     true,
		MaxInFlight:  64,
		QueueTimeout: 2 * time.Second,
		ResultCache:  resultcache.Config{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serving.NewServer(fed, time.Minute)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(10 * time.Second)

	const clients, perClient = 256, 20
	sched, err := loadgen.Generate(loadgen.Config{
		Seed:        42,
		Clients:     clients,
		Requests:    perClient,
		Templates:   loadgen.DemoTemplates(soakParts),
		Mix:         loadgen.DefaultMix(),
		SampleEvery: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.Drive(sched, loadgen.DriveOptions{
		Addrs:          []string{ln.Addr().String()},
		RequestTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	stats := srv.Stats()
	hits, misses := stats.Mediator.ResultCacheHits, stats.Mediator.ResultCacheMisses
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	t.Logf("result-cache soak: ok=%d shed=%d errors=%d partials=%d p99=%.1fms qps=%.0f "+
		"rc-hits=%d rc-misses=%d rc-stale=%d rc-inval=%d hit-rate=%.3f",
		rep.OK, rep.Shed, rep.Errors, rep.Partials, rep.P99MS, rep.QPS,
		hits, misses, stats.Mediator.ResultCacheStale, stats.Mediator.ResultCacheInvalidations, hitRate)

	if rep.Wedged != 0 {
		t.Fatalf("%d wedged clients: %v", rep.Wedged, rep.WedgedClients)
	}
	if rep.Errors != 0 {
		t.Errorf("%d error responses", rep.Errors)
	}
	if rep.Partials != 0 {
		t.Errorf("%d partial answers without an injected outage", rep.Partials)
	}
	if stats.Mediator.QueryErrors != 0 {
		t.Errorf("server counted %d execution errors", stats.Mediator.QueryErrors)
	}
	// The cache gate: the zipf-hot pool must be served from memory a
	// material fraction of the time despite the chaos mix invalidating
	// the cache throughout the run.
	if hits == 0 {
		t.Error("the hot pool never hit the result cache")
	}
	if hitRate < 0.05 {
		t.Errorf("result-cache hit rate %.3f below the 0.05 soak floor", hitRate)
	}

	// Oracle pass, identical to TestSoak: every sampled answer — cached
	// or executed — must match a fresh cache-off, feedback-off replay.
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
