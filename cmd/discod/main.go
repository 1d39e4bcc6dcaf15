// Command discod runs a DISCO mediator as a TCP server speaking the wire
// protocol of internal/proto. It assembles the demo federation —
// the OO7 object database, a relational catalog of suppliers, and a flat
// file of inspection notes — registers the wrappers, and serves queries.
// Connections are handled concurrently: the mediator pipeline is
// thread-safe, repeated statements hit the prepared-plan cache, and
// admission control sheds excess load instead of queueing unboundedly.
//
// Usage:
//
//	discod [-listen :4077] [-parts 14000] [-feedback] [-feedback-snapshot file]
//	       [-max-inflight 32] [-queue-timeout 1s] [-idle-timeout 5m]
//	       [-drain-timeout 5s] [-result-cache] [-result-cache-entries 1024]
//	       [-result-cache-bytes 67108864] [-exec-mem-bytes 0]
//	       [-exec-spill-dir dir]
//
// With -feedback (the default) every executed query is profiled and fed
// back into the cost model; -feedback-snapshot names a JSON file that
// persists the learned corrections across restarts (saves are debounced
// and flushed on shutdown). -max-inflight bounds concurrently executing
// queries (0 = unlimited); a query that cannot be admitted within
// -queue-timeout is shed with an `overloaded` error. -idle-timeout drops
// connections that stay silent — including half-open peers that will
// never speak again. On SIGINT/SIGTERM the server stops accepting,
// drains in-flight connections for up to -drain-timeout, and flushes
// the feedback snapshot.
//
// -result-cache enables the semantic result cache: whole-plan answers
// keyed by structural plan hash, served for repeated queries and
// invalidated by re-registration, wrapper outages and feedback
// corrections; nothing expires by age. -result-cache-entries /
// -result-cache-bytes bound it. Hit/miss/eviction counters appear in the
// `stats` admin op.
//
// -exec-mem-bytes bounds the memory the mediator's hash joins and
// aggregations may hold before Grace-style spilling to -exec-spill-dir
// (0 = never spill).
//
// The serving machinery (federation assembly, protocol loop, graceful
// shutdown, stats/reregister/setlink admin ops) lives in
// internal/serving; this command is the flag wrapper. Try it with
// cmd/discoctl, or load-test it with cmd/discoload.
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"disco/internal/resultcache"
	"disco/internal/serving"
)

func main() {
	listen := flag.String("listen", ":4077", "address to listen on")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "drop connections idle longer than this (0 = never)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "shutdown wait for in-flight connections")
	opts := serving.RegisterFlags(flag.CommandLine, 14000)
	flag.StringVar(&opts.FeedbackSnapshot, "feedback-snapshot", "", "JSON file persisting learned corrections across restarts")
	flag.IntVar(&opts.ResultCache.Entries, "result-cache-entries", resultcache.DefaultEntries, "result cache entry bound")
	flag.StringVar(&opts.ExecSpillDir, "exec-spill-dir", "", "directory for spill partitions (default: OS temp dir)")
	flag.Parse()

	fed, err := serving.NewDemoFederation(*opts)
	if err != nil {
		log.Fatal(err)
	}
	srv := serving.NewServer(fed, *idleTimeout)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Printf("discod: draining (up to %s)", *drainTimeout)
		if err := srv.Shutdown(*drainTimeout); err != nil {
			log.Printf("discod: shutdown: %v", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()

	log.Printf("discod: serving the demo federation on %s", ln.Addr())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, serving.ErrServerClosed) {
		log.Fatal(err)
	}
}
