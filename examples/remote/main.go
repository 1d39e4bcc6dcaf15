// Remote: wrappers as separate components, the way the DISCO architecture
// draws them. A wrapper is served over TCP (as cmd/wrapperd would host
// it); the mediator dials it, pulls the registration payload — schema,
// statistics, cost rules — across the wire, and runs queries whose
// subplans execute remotely. The remote side's virtual time is part of
// each query's measured time, so response-time accounting spans both
// processes.
//
// Run with: go run ./examples/remote
package main

import (
	"fmt"
	"log"
	"net"

	"disco"
	"disco/internal/objstore"
	"disco/internal/oo7"
	"disco/internal/wrapper"
)

func main() {
	// The "wrapper process": its own store, served on a loopback
	// listener (in production this is cmd/wrapperd).
	cfg := objstore.DefaultConfig()
	cfg.BufferPages = 300
	store := objstore.Open(cfg)
	scale := oo7.TinyScale()
	scale.AtomicParts = 7000
	if err := oo7.Generate(store, scale, 1); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go wrapper.Serve(ln, wrapper.NewObjWrapper("oo7", store))
	fmt.Println("wrapper serving on", ln.Addr())

	// The mediator process: dial, register, query.
	m, err := disco.NewMediator(disco.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	rw, err := wrapper.DialRemote(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer rw.Close()
	if err := m.Register(rw); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered remote wrapper %q: collections %v, %d cost rules integrated\n",
		rw.Name(), rw.Collections(), len(m.Registry.WrapperRules("oo7")))

	sql := `SELECT x, y FROM AtomicParts WHERE AtomicParts.id < 20`
	p, err := m.Prepare(sql)
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.ExecutePlan(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%q -> %d rows\n", sql, len(res.Rows))
	fmt.Printf("estimated %.1f ms, measured %.1f ms (remote virtual time merged)\n",
		p.Cost.TotalTime(), res.ElapsedMS)
}
