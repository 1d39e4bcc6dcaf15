package optimizer

import (
	"testing"

	"disco/internal/algebra"
)

// TestMemoTableAllocFree pins the memo's per-probe cost: once a key is
// cached, re-reading and re-writing it must not allocate (the search
// probes the table once per candidate, so a single stray allocation here
// multiplies across the whole enumeration).
func TestMemoTableAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	t.Run("hashed", func(t *testing.T) {
		m := newMemoTable()
		k := algebra.Hash128{Lo: 0x1234, Hi: 0x5678}
		m.put(k, 42)
		avg := testing.AllocsPerRun(200, func() {
			if v, ok := m.get(k); !ok || v != 42 {
				t.Fatal("memo lost its entry")
			}
			m.put(k, 42)
		})
		if avg > 0 {
			t.Errorf("memo get+put allocates %.1f objects/run, want 0", avg)
		}
	})
}
