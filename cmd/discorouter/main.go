// Command discorouter fronts a set of discod replicas with the
// federation router: plan-affine routing with a per-request cost
// escape, catalog gossip for epoch-bumping admin ops, and
// scatter-gather execution of partitioned scans. It speaks the same
// wire protocol as discod, so discoctl and discoload connect to it
// unchanged.
//
// Usage:
//
//	discorouter [-listen :4078] -replicas host:4077,host:4177@2,host:4277
//	            [-demo-partitions 14000] [-partition Coll:col:lo:hi,...]
//	            [-poll-interval 2s] [-warm-limit 32]
//	            [-dial-timeout 2s] [-request-timeout 30s]
//	            [-idle-timeout 5m] [-drain-timeout 5s]
//
// -replicas lists the replica addresses, each at most once; an
// optional @N suffix declares static relative capacity (default 1), the
// replica's weight in every statement's rendezvous order.
// -demo-partitions declares the demo federation's partitionable
// collections at the given AtomicParts cardinality, enabling
// scatter-gather; -partition declares explicit Collection:column:lo:hi
// ranges instead. The router polls every replica's stats endpoint on
// -poll-interval to feed the per-request cost (replica-reported load)
// and to spot a changed catalog epoch, and re-warms hot statements into
// a replica that restarted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"disco/internal/router"
	"disco/internal/serving"
)

// parseReplicas splits "addr[@capacity],..." into replica configs.
func parseReplicas(spec string) ([]router.ReplicaConfig, error) {
	var out []router.ReplicaConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rc := router.ReplicaConfig{Addr: part, Capacity: 1}
		if at := strings.LastIndex(part, "@"); at >= 0 {
			cap, err := strconv.ParseFloat(part[at+1:], 64)
			if err != nil || cap <= 0 {
				return nil, fmt.Errorf("replica %q: bad capacity %q", part, part[at+1:])
			}
			rc.Addr, rc.Capacity = part[:at], cap
		}
		out = append(out, rc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no replicas in %q", spec)
	}
	return out, nil
}

// parsePartitions splits "Collection:column:lo:hi,..." into partition
// declarations.
func parsePartitions(spec string) ([]router.Partition, error) {
	var out []router.Partition
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		if len(f) != 4 {
			return nil, fmt.Errorf("partition %q: want Collection:column:lo:hi", part)
		}
		lo, err1 := strconv.ParseInt(f[2], 10, 64)
		hi, err2 := strconv.ParseInt(f[3], 10, 64)
		if err1 != nil || err2 != nil || hi <= lo {
			return nil, fmt.Errorf("partition %q: bad range [%s,%s)", part, f[2], f[3])
		}
		out = append(out, router.Partition{Collection: f[0], Column: f[1], Lo: lo, Hi: hi})
	}
	return out, nil
}

func main() {
	listen := flag.String("listen", ":4078", "address to listen on")
	replicas := flag.String("replicas", "", "comma-separated replica addresses, each addr[@capacity]")
	demoParts := flag.Int("demo-partitions", 0, "declare demo federation partitions at this AtomicParts cardinality (0 = off)")
	partitions := flag.String("partition", "", "explicit partitions, comma-separated Collection:column:lo:hi")
	pollInterval := flag.Duration("poll-interval", 2*time.Second, "replica stats poll pacing the cost model")
	warmLimit := flag.Int("warm-limit", 32, "hot statements re-warmed after gossip or replica restart")
	dialTimeout := flag.Duration("dial-timeout", 2*time.Second, "replica dial timeout")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "replica request/response timeout")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "drop client connections idle longer than this (0 = never)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "shutdown wait for in-flight connections")
	flag.Parse()

	if *replicas == "" {
		log.Fatal("discorouter: -replicas is required")
	}
	reps, err := parseReplicas(*replicas)
	if err != nil {
		log.Fatalf("discorouter: %v", err)
	}
	var parts []router.Partition
	if *demoParts > 0 {
		parts = router.DemoPartitions(*demoParts)
	}
	if *partitions != "" {
		extra, err := parsePartitions(*partitions)
		if err != nil {
			log.Fatalf("discorouter: %v", err)
		}
		parts = append(parts, extra...)
	}

	rt, err := router.New(router.Config{
		Replicas:       reps,
		Partitions:     parts,
		DialTimeout:    *dialTimeout,
		RequestTimeout: *reqTimeout,
		PollInterval:   *pollInterval,
		WarmLimit:      *warmLimit,
	})
	if err != nil {
		log.Fatalf("discorouter: %v", err)
	}
	srv := serving.NewConnServer(rt, *idleTimeout, func() error { return rt.Close() })
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Printf("discorouter: draining (up to %s)", *drainTimeout)
		if err := srv.Shutdown(*drainTimeout); err != nil {
			log.Printf("discorouter: shutdown: %v", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()

	log.Printf("discorouter: routing %d replicas on %s (scatter partitions: %d)", len(reps), ln.Addr(), len(parts))
	if err := srv.Serve(ln); err != nil && !errors.Is(err, serving.ErrServerClosed) {
		log.Fatal(err)
	}
}
