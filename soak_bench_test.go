package disco_test

import (
	"net"
	"testing"
	"time"

	"disco/internal/loadgen"
	"disco/internal/serving"
)

// BenchmarkSoakServing runs a scaled-down deterministic soak — the
// cmd/discoload workload over real sockets against an in-process demo
// server — and reports the serving-latency headline metrics
// (p50/p99/p999 wall-clock ms, qps, shed rate) for `make bench`; the
// repo's benchmark under bench/ is the gated measure.
//
// This file is an external test package (disco_test): it has to import
// internal/serving, which in turn imports the packages the in-package
// bench suite (bench_test.go, `package disco`) is compiled against —
// an in-package import would cycle.
func BenchmarkSoakServing(b *testing.B) {
	const parts = 1000
	fed, err := serving.NewDemoFederation(serving.Options{
		Parts:        parts,
		MaxInFlight:  32,
		QueueTimeout: time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := serving.NewServer(fed, time.Minute)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(5 * time.Second)

	sched, err := loadgen.Generate(loadgen.Config{
		Seed:      7,
		Clients:   32,
		Requests:  25,
		Templates: loadgen.DemoTemplates(parts),
		Mix:       loadgen.DefaultMix(),
	})
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := loadgen.Drive(sched, loadgen.DriveOptions{
			Addrs: []string{ln.Addr().String()},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Wedged > 0 {
			b.Fatalf("%d wedged clients: %v", rep.Wedged, rep.WedgedClients)
		}
		if rep.Errors > 0 {
			b.Fatalf("%d error responses", rep.Errors)
		}
		b.ReportMetric(rep.P50MS, "p50-ms")
		b.ReportMetric(rep.P99MS, "p99-ms")
		b.ReportMetric(rep.P999MS, "p999-ms")
		b.ReportMetric(rep.QPS, "qps")
		b.ReportMetric(rep.ShedRate, "shed-rate")
	}
}
