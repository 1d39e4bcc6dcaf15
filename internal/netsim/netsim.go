// Package netsim provides the deterministic simulation substrate of the
// reproduction: a Meter that one wrapper execution or one mediator
// execution charges as it performs work, the LRU page buffer the stores
// share between their collections (Pool), and a per-wrapper network
// model feeding the submit operator's communication cost. The paper ran
// against a real ObjectStore testbed; simulating time as a pure function
// of pages touched, objects processed and bytes shipped makes every
// experiment exactly reproducible while preserving the phenomena the
// cost model is about (see DESIGN.md §2).
//
// A query's or a submit's time is the sum its own meter collected,
// starting at zero, so concurrent executions never land in each other's
// times.
package netsim

import (
	"fmt"
	"sync"
)

// Meter accumulates the virtual milliseconds of one execution. It has no
// lock: one execution runs on one goroutine.
type Meter struct{ ms float64 }

// Add charges ms milliseconds (non-positive values are ignored).
func (m *Meter) Add(ms float64) {
	if ms > 0 {
		m.ms += ms
	}
}

// AddN is n calls to Add(ms): the same n float additions in the same
// order, so a page of rows charges bit-identically to one call per row.
func (m *Meter) AddN(ms float64, n int) {
	if ms <= 0 {
		return
	}
	for range n {
		m.ms += ms
	}
}

// MS returns the milliseconds charged so far.
func (m *Meter) MS() float64 { return m.ms }

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
}

// NewNetwork builds a network with the given default link.
func NewNetwork(def Link) *Network {
	return &Network{Default: def, links: make(map[string]Link)}
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

// String renders the default link for diagnostics.
func (n *Network) String() string {
	return fmt.Sprintf("net(latency=%.3gms, perbyte=%.3gms)", n.Default.LatencyMS, n.Default.PerByteMS)
}
