// Command wrapperd runs one data-source wrapper as a standalone TCP
// server speaking the wrapper wire protocol — the DISCO architecture's
// wrapper component as its own process. A mediator registers it with
// wrapper.DialRemote (discod does not do this by default; wrapperd exists
// for distributed experiments and as the reference server implementation).
//
// Usage:
//
//	wrapperd [-listen :4078] [-name oo7] [-parts 14000] [-faults spec]
//
// The served source is an OO7 object database. -faults injects failures
// at the transport for resilience experiments, in netsim.ParseFaultSpec
// syntax: "oo7:drop=0.1,error=0.05,delay=20,seed=7" (or "*:..." to match
// any name). Entries for other wrapper names are ignored.
package main

import (
	"flag"
	"log"
	"net"

	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/oo7"
	"disco/internal/wrapper"
)

func main() {
	listen := flag.String("listen", ":4078", "address to listen on")
	name := flag.String("name", "oo7", "registered wrapper name")
	parts := flag.Int("parts", 14000, "OO7 AtomicParts cardinality")
	faults := flag.String("faults", "", "fault injection spec (wrapper:drop=0.1,delay=50,...)")
	flag.Parse()

	faultSet, err := netsim.ParseFaultSpec(*faults)
	if err != nil {
		log.Fatalf("wrapperd: -faults: %v", err)
	}
	var inj *netsim.Injector
	if plan, ok := faultSet.PlanFor(*name); ok && !plan.IsZero() {
		inj = netsim.NewInjector(plan)
		log.Printf("wrapperd: injecting faults: %s", plan)
	}

	cfg := objstore.DefaultConfig()
	cfg.BufferPages = *parts/70 + 64
	store := objstore.Open(cfg)
	scale := oo7.PaperScale()
	scale.AtomicParts = *parts
	if err := oo7.Generate(store, scale, 1); err != nil {
		log.Fatal(err)
	}
	w := wrapper.NewObjWrapper(*name, store)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("wrapperd: serving wrapper %q (%d parts) on %s", *name, *parts, ln.Addr())
	if err := wrapper.ServeFaulty(ln, w, inj); err != nil {
		log.Fatal(err)
	}
}
