package feedback

import (
	"testing"
	"time"
)

func snapWithCoeff(v float64) func() *Snapshot {
	return func() *Snapshot {
		return &Snapshot{Version: SnapshotVersion, Coeffs: map[string]float64{"x": v}}
	}
}

func TestDebouncerCoalesces(t *testing.T) {
	store := NewMemStore()
	d := NewDebouncer(store, time.Hour)
	for i := 0; i < 50; i++ {
		if err := d.Mark(snapWithCoeff(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Saves(); got != 1 {
		t.Errorf("saves inside the window = %d, want 1", got)
	}
	// The store holds the first capture until a flush.
	snap, _ := store.Load()
	if snap.Coeffs["x"] != 0 {
		t.Errorf("pre-flush store coeff = %v, want 0 (first mark)", snap.Coeffs["x"])
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := d.Saves(); got != 2 {
		t.Errorf("saves after flush = %d, want 2", got)
	}
	snap, _ = store.Load()
	if snap.Coeffs["x"] != 49 {
		t.Errorf("flushed coeff = %v, want 49 (latest mark)", snap.Coeffs["x"])
	}
	// Nothing dirty: a second flush writes nothing.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := d.Saves(); got != 2 {
		t.Errorf("clean flush must not save, saves = %d", got)
	}
}

func TestDebouncerReopensWindow(t *testing.T) {
	store := NewMemStore()
	d := NewDebouncer(store, 20*time.Millisecond)
	if err := d.Mark(snapWithCoeff(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Mark(snapWithCoeff(2)); err != nil {
		t.Fatal(err)
	}
	if got := d.Saves(); got != 1 {
		t.Fatalf("saves inside window = %d, want 1", got)
	}
	time.Sleep(25 * time.Millisecond)
	if err := d.Mark(snapWithCoeff(3)); err != nil {
		t.Fatal(err)
	}
	if got := d.Saves(); got != 2 {
		t.Errorf("mark past the window must save, saves = %d", got)
	}
	snap, _ := store.Load()
	if snap.Coeffs["x"] != 3 {
		t.Errorf("coeff = %v, want 3", snap.Coeffs["x"])
	}
}

// MemStore is the in-memory Store: snapshots survive re-wiring within a
// process but not a restart. The zero value is ready to use.
type MemStore struct {
	snap *Snapshot
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save implements Store.
func (s *MemStore) Save(snap *Snapshot) error {
	s.snap = snap
	return nil
}

// Load implements Store.
func (s *MemStore) Load() (*Snapshot, error) {
	if s.snap == nil {
		return &Snapshot{Version: SnapshotVersion}, nil
	}
	return s.snap, nil
}
