package netsim

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestLinkTransfer(t *testing.T) {
	l := Link{LatencyMS: 10, PerByteMS: 0.001}
	if got := l.TransferMS(1000); got != 11 {
		t.Errorf("TransferMS = %v", got)
	}
}

func TestNetworkLinksAndShip(t *testing.T) {
	n := NewNetwork(Link{LatencyMS: 10, PerByteMS: 0.001})
	n.SetLink("slow", Link{LatencyMS: 100, PerByteMS: 0.01})

	if n.LatencyMS("fast") != 10 || n.PerByteMS("fast") != 0.001 {
		t.Error("default link")
	}
	if n.LatencyMS("slow") != 100 {
		t.Error("override link")
	}
	var m Meter
	m.Add(n.LinkFor("fast").TransferMS(1000)) // 11 ms
	m.Add(n.LinkFor("slow").TransferMS(1000)) // 110 ms
	if m.MS() != 121 {
		t.Errorf("shipping = %v ms, want 121", m.MS())
	}
	if !strings.Contains(n.String(), "latency=10ms") {
		t.Errorf("String = %q", n.String())
	}
}

// TestNetworkConcurrentReconfigure is the regression test for the links
// race: since PR 1 parallel optimizer workers call LatencyMS/PerByteMS
// concurrently, which used to race with SetLink on the unguarded map
// (caught only under -race, which CI runs on this package).
func TestNetworkConcurrentReconfigure(t *testing.T) {
	n := NewNetwork(Link{LatencyMS: 10, PerByteMS: 0.001})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = n.LatencyMS("w")
				_ = n.PerByteMS("w")
				_ = n.LinkFor("other")
				_ = n.LinkFor("w").TransferMS(64)
			}
		}()
	}
	for i := 0; i < 500; i++ {
		n.SetLink("w", Link{LatencyMS: float64(i), PerByteMS: 0.01})
	}
	close(stop)
	wg.Wait()
	if got := n.LatencyMS("w"); got != 499 {
		t.Errorf("final latency = %v, want 499", got)
	}
}

// AddN must be n Add calls bit for bit: the stores charge a page of rows
// with one call where they used to make one per row.
func TestMeterAddNMatchesAdd(t *testing.T) {
	for _, n := range []int{0, 1, 3, 127, 1000, 12345} {
		var a, b Meter
		a.Add(1.0 / 3)
		b.Add(1.0 / 3)
		a.AddN(0.1, n)
		for range n {
			b.Add(0.1)
		}
		if math.Float64bits(a.MS()) != math.Float64bits(b.MS()) {
			t.Errorf("n=%d: AddN reads %v, %d Add calls %v", n, a.MS(), n, b.MS())
		}
	}
	var c Meter
	c.Add(-1)
	c.Add(0)
	c.AddN(-1, 5)
	c.AddN(0, 5)
	c.AddN(2, -1)
	if c.MS() != 0 {
		t.Errorf("non-positive charges moved the meter to %v", c.MS())
	}
}
