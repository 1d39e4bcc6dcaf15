// Command discoload is the workload-scale load generator for discod: it
// drives thousands of concurrent clients over real TCP sockets against
// one or more mediator servers, records per-request wall-clock latency
// into an HDR-style histogram, and reports p50/p99/p999 latency, qps,
// overload-shed rate and partial-answer rate.
//
// Usage:
//
//	discoload -addrs host:4077[,host2:4077...] [flags]
//	discoload -demo [-parts 2000] [flags]
//
// With -addrs it targets running discod processes (client c connects to
// address c mod len). With -demo it starts an in-process demo-federation
// server on an ephemeral port and tears it down after the run — the
// single-binary soak mode CI uses. Demo mode accepts -result-cache (plus
// -result-cache-bytes) to serve the zipf-hot pool
// from the semantic result cache; the scraped hit rate lands in the
// report as result_cache_hit_rate. -exec-mem-bytes bounds the memory the
// mediator's hash joins and aggregations hold before spilling.
// -replicas N (N > 1) brings up N identical demo replicas fronted by an
// in-process federation router (internal/router) with scatter-gather
// partitions declared — the scale-out soak mode; the report's per_target
// section then breaks the run down by serving replica.
//
// The workload is deterministic in -seed: a zipf-skewed hot pool of
// prepared statements (plan-cache hits), a stream of ad-hoc statements
// with fresh literals (cache misses), and chaos events — explains,
// wrapper re-registrations (catalog epoch churn) and netsim link
// perturbations — at -mix weights per 10000 requests. Every -sample'th
// query records an order-insensitive result digest for offline oracle
// verification.
//
// Output is the JSON report on stdout. Exit status is non-zero when any
// client wedged (timed out or hit an I/O error mid-schedule).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"disco/internal/loadgen"
	"disco/internal/router"
	"disco/internal/serving"
)

func main() {
	var (
		addrs    = flag.String("addrs", "", "comma-separated discod addresses (client c dials addrs[c mod n])")
		demo     = flag.Bool("demo", false, "serve an in-process demo federation instead of dialing -addrs")
		opts     = serving.RegisterFlags(flag.CommandLine, 2000) // demo mode: the in-process servers' options
		replicas = flag.Int("replicas", 1, "demo mode: identical replicas fronted by an in-process federation router (1 = single server)")

		clients  = flag.Int("clients", 64, "concurrent client connections")
		requests = flag.Int("requests", 100, "requests per client")
		seed     = flag.Int64("seed", 1, "workload seed (same seed, same schedule)")
		hot      = flag.Float64("hot", loadgen.DefaultHotRatio, "fraction of queries drawn from the hot statement pool")
		hotPool  = flag.Int("hot-pool", loadgen.DefaultHotPool, "hot statement pool size")
		zipfS    = flag.Float64("zipf", loadgen.DefaultZipfS, "zipf skew parameter s (> 1) over the hot pool")
		mix      = flag.String("mix", "explain=200,analyze=100,reregister=20,setlink=30", "per-10000 event weights")
		sample   = flag.Int("sample", 0, "record an oracle digest every n-th query (0 = never)")
		timeout  = flag.Duration("timeout", loadgen.DefaultTimeout, "per-request wedge bound")
	)
	flag.Parse()

	mixWeights, err := loadgen.ParseMix(*mix)
	if err != nil {
		log.Fatal("discoload: ", err)
	}

	var targets []string
	if *demo {
		if *addrs != "" {
			log.Fatal("discoload: -demo and -addrs are mutually exclusive")
		}
		if *replicas < 1 {
			log.Fatal("discoload: -replicas must be at least 1")
		}
		// Every replica is the same deterministic demo federation, so a
		// router may scatter partitioned scans across them and bag-union
		// the shards into exact answers.
		repConfigs := make([]router.ReplicaConfig, 0, *replicas)
		for i := 0; i < *replicas; i++ {
			fed, err := serving.NewDemoFederation(*opts)
			if err != nil {
				log.Fatal("discoload: ", err)
			}
			srv := serving.NewServer(fed, 5*time.Minute)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal("discoload: ", err)
			}
			go srv.Serve(ln)
			defer srv.Shutdown(5 * time.Second)
			repConfigs = append(repConfigs, router.ReplicaConfig{Addr: ln.Addr().String()})
		}
		if *replicas == 1 {
			targets = []string{repConfigs[0].Addr}
			fmt.Fprintf(os.Stderr, "discoload: demo server on %s (parts=%d, max-inflight=%d)\n",
				targets[0], opts.Parts, opts.MaxInFlight)
		} else {
			rt, err := router.New(router.Config{
				Replicas:   repConfigs,
				Partitions: router.DemoPartitions(opts.Parts),
			})
			if err != nil {
				log.Fatal("discoload: ", err)
			}
			rsrv := serving.NewConnServer(rt, 5*time.Minute, rt.Close)
			rln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal("discoload: ", err)
			}
			go rsrv.Serve(rln)
			defer rsrv.Shutdown(5 * time.Second)
			targets = []string{rln.Addr().String()}
			fmt.Fprintf(os.Stderr, "discoload: demo router on %s fronting %d replicas (parts=%d, max-inflight=%d)\n",
				targets[0], *replicas, opts.Parts, opts.MaxInFlight)
		}
	} else {
		targets = strings.Split(*addrs, ",")
		if *addrs == "" || len(targets) == 0 {
			log.Fatal("discoload: need -addrs or -demo")
		}
	}

	sched, err := loadgen.Generate(loadgen.Config{
		Seed:        *seed,
		Clients:     *clients,
		Requests:    *requests,
		Templates:   loadgen.DemoTemplates(opts.Parts),
		HotRatio:    *hot,
		HotPool:     *hotPool,
		ZipfS:       *zipfS,
		Mix:         mixWeights,
		SampleEvery: *sample,
	})
	if err != nil {
		log.Fatal("discoload: ", err)
	}
	fmt.Fprintf(os.Stderr, "discoload: driving %d clients × %d requests (seed %d) against %s\n",
		*clients, *requests, *seed, strings.Join(targets, ", "))

	rep, err := loadgen.Drive(sched, loadgen.DriveOptions{
		Addrs:          targets,
		RequestTimeout: *timeout,
	})
	if err != nil {
		log.Fatal("discoload: ", err)
	}
	if stats, err := loadgen.ScrapeStats(targets[0], *timeout); err == nil {
		rep.AttachServerStats(stats)
	} else {
		fmt.Fprintf(os.Stderr, "discoload: stats scrape failed: %v\n", err)
	}
	for _, ts := range rep.PerTarget {
		fmt.Fprintf(os.Stderr, "discoload: target %-24s ok=%-6d shed=%-5d errors=%-5d partials=%-5d p50=%.2fms p99=%.2fms mean=%.2fms",
			ts.Target, ts.OK, ts.Shed, ts.Errors, ts.Partials, ts.P50MS, ts.P99MS, ts.MeanMS)
		if ts.ShardsServed > 0 {
			fmt.Fprintf(os.Stderr, " shards=%d shard-rows=%d shard-mean=%.2fms",
				ts.ShardsServed, ts.ShardRows, ts.ShardMeanMS)
		}
		fmt.Fprintln(os.Stderr)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal("discoload: ", err)
	}
	if rep.Wedged > 0 {
		fmt.Fprintf(os.Stderr, "discoload: FAIL — %d wedged clients\n", rep.Wedged)
		os.Exit(1)
	}
}
