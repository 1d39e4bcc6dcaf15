package netsim

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Error("fresh clock should be at 0")
	}
	c.Advance(10.5)
	c.Advance(-5) // ignored
	c.Advance(0)  // ignored
	if c.Now() != 10.5 {
		t.Errorf("Now = %v", c.Now())
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8000 {
		t.Errorf("Now = %v, want 8000", c.Now())
	}
}

func TestStopwatch(t *testing.T) {
	c := NewClock()
	c.Advance(5)
	w := StartWatch(c)
	c.Advance(7)
	if w.ElapsedMS() != 7 {
		t.Errorf("Elapsed = %v", w.ElapsedMS())
	}
}

func TestLinkTransfer(t *testing.T) {
	l := Link{LatencyMS: 10, PerByteMS: 0.001}
	if got := l.TransferMS(1000); got != 11 {
		t.Errorf("TransferMS = %v", got)
	}
}

func TestNetworkLinksAndShip(t *testing.T) {
	clock := NewClock()
	n := NewNetwork(Link{LatencyMS: 10, PerByteMS: 0.001}, clock)
	n.SetLink("slow", Link{LatencyMS: 100, PerByteMS: 0.01})

	if n.LatencyMS("fast") != 10 || n.PerByteMS("fast") != 0.001 {
		t.Error("default link")
	}
	if n.LatencyMS("slow") != 100 {
		t.Error("override link")
	}
	n.Ship("fast", 1000) // 11 ms
	n.Ship("slow", 1000) // 110 ms
	if clock.Now() != 121 {
		t.Errorf("clock = %v, want 121", clock.Now())
	}
	if !strings.Contains(n.String(), "latency=10ms") {
		t.Errorf("String = %q", n.String())
	}
}

func TestNetworkNilClock(t *testing.T) {
	n := NewNetwork(Link{LatencyMS: 1}, nil)
	n.Ship("w", 100) // must not panic
}

// TestNetworkConcurrentReconfigure is the regression test for the links
// race: since PR 1 parallel optimizer workers call LatencyMS/PerByteMS
// concurrently, which used to race with SetLink on the unguarded map
// (caught only under -race, which CI runs on this package).
func TestNetworkConcurrentReconfigure(t *testing.T) {
	n := NewNetwork(Link{LatencyMS: 10, PerByteMS: 0.001}, NewClock())
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
				n.Ship("w", 64)
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

// AdvanceN must be n Advance calls bit for bit: the stores charge a page
// of rows with one call where they used to make one per row.
func TestClockAdvanceNMatchesAdvance(t *testing.T) {
	for _, n := range []int{0, 1, 3, 127, 1000, 12345} {
		a, b := NewClock(), NewClock()
		a.Advance(1.0 / 3)
		b.Advance(1.0 / 3)
		a.AdvanceN(0.1, n)
		for range n {
			b.Advance(0.1)
		}
		if math.Float64bits(a.Now()) != math.Float64bits(b.Now()) {
			t.Errorf("n=%d: AdvanceN reads %v, %d Advance calls %v", n, a.Now(), n, b.Now())
		}
	}
	c := NewClock()
	c.AdvanceN(-1, 5)
	c.AdvanceN(0, 5)
	c.AdvanceN(2, -1)
	if c.Now() != 0 {
		t.Errorf("non-positive AdvanceN moved the clock to %v", c.Now())
	}
}
