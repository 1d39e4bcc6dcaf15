// Package netsim provides the deterministic simulation substrate of the
// reproduction: a virtual clock that data sources, the mediator engine and
// the communication layer advance as they perform work, and a per-wrapper
// network model feeding the submit operator's communication cost. The
// paper ran against a real ObjectStore testbed; simulating time as a pure
// function of pages touched, objects processed and bytes shipped makes
// every experiment exactly reproducible while preserving the phenomena the
// cost model is about (see DESIGN.md §2).
package netsim

import (
	"fmt"
	"sync"
)

// Clock is a virtual millisecond clock. It is safe for concurrent use; in
// the serial iterator engine contention is nil.
type Clock struct {
	mu sync.Mutex
	ms float64
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Advance moves the clock forward by ms milliseconds (negative values are
// ignored).
func (c *Clock) Advance(ms float64) {
	if ms <= 0 {
		return
	}
	c.mu.Lock()
	c.ms += ms
	c.mu.Unlock()
}

// AdvanceN is n calls to Advance(ms) under one lock: the same n float
// additions in the same order, so a sequential caller reads bit-identical
// time, at one lock per page of rows instead of one per row.
func (c *Clock) AdvanceN(ms float64, n int) {
	if ms <= 0 || n <= 0 {
		return
	}
	c.mu.Lock()
	for range n {
		c.ms += ms
	}
	c.mu.Unlock()
}

// Lock holds the clock for a run of AddLocked calls, so a caller charging
// many small costs in a fixed order takes the lock once; Unlock releases
// it. A caller that also holds another lock takes that one first.
func (c *Clock) Lock() { c.mu.Lock() }

// Unlock releases the clock taken by Lock.
func (c *Clock) Unlock() { c.mu.Unlock() }

// AddLocked is Advance for a caller holding the lock: the same float
// addition, so a run of them reads bit-identical to the Advance calls it
// replaces.
func (c *Clock) AddLocked(ms float64) {
	if ms > 0 {
		c.ms += ms
	}
}

// Now returns the current virtual time in milliseconds.
func (c *Clock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ms
}

// Stopwatch measures elapsed virtual time.
type Stopwatch struct {
	clock *Clock
	start float64
}

// StartWatch begins measuring on the clock.
func StartWatch(c *Clock) *Stopwatch { return &Stopwatch{clock: c, start: c.Now()} }

// ElapsedMS reports virtual milliseconds since the watch started.
func (s *Stopwatch) ElapsedMS() float64 { return s.clock.Now() - s.start }

// Link describes the connection between the mediator and one wrapper.
type Link struct {
	// LatencyMS is the per-message overhead in milliseconds.
	LatencyMS float64
	// PerByteMS is the transfer time per byte in milliseconds
	// (1/bandwidth).
	PerByteMS float64
}

// TransferMS is the time to ship n bytes over the link, including the
// per-message latency.
func (l Link) TransferMS(bytes int64) float64 {
	return l.LatencyMS + float64(bytes)*l.PerByteMS
}

// Network models the communication substrate: a default link plus
// per-wrapper overrides. The paper assumes uniform communication costs
// (§2.3); per-wrapper links are the extension its future-work section
// motivates. Network implements the cost model's NetProvider and is safe
// for concurrent use: parallel optimizer workers read links while an
// administrator (or a test) reconfigures them with SetLink.
type Network struct {
	Default Link
	mu      sync.RWMutex
	links   map[string]Link
	clock   *Clock
}

// NewNetwork builds a network with the given default link and clock. A
// nil clock means transfers advance no virtual time (estimation-only use).
func NewNetwork(def Link, clock *Clock) *Network {
	return &Network{Default: def, links: make(map[string]Link), clock: clock}
}

// SetLink overrides the link of one wrapper.
func (n *Network) SetLink(wrapper string, l Link) {
	n.mu.Lock()
	n.links[wrapper] = l
	n.mu.Unlock()
}

// LinkFor returns the wrapper's link.
func (n *Network) LinkFor(wrapper string) Link {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if l, ok := n.links[wrapper]; ok {
		return l
	}
	return n.Default
}

// LatencyMS implements core.NetProvider.
func (n *Network) LatencyMS(wrapper string) float64 { return n.LinkFor(wrapper).LatencyMS }

// PerByteMS implements core.NetProvider.
func (n *Network) PerByteMS(wrapper string) float64 { return n.LinkFor(wrapper).PerByteMS }

// Ship simulates transferring bytes from a wrapper to the mediator,
// advancing the clock.
func (n *Network) Ship(wrapper string, bytes int64) {
	if n.clock != nil {
		n.clock.Advance(n.LinkFor(wrapper).TransferMS(bytes))
	}
}

// String renders the default link for diagnostics.
func (n *Network) String() string {
	return fmt.Sprintf("net(latency=%.3gms, perbyte=%.3gms)", n.Default.LatencyMS, n.Default.PerByteMS)
}
