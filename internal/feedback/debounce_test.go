package feedback

import (
	"errors"
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

// flakyStore fails its first fails saves, then stores like a MemStore.
type flakyStore struct {
	MemStore
	fails    int
	attempts int
}

var errDiskFull = errors.New("disk full")

func (s *flakyStore) Save(snap *Snapshot) error {
	s.attempts++
	if s.attempts <= s.fails {
		return errDiskFull
	}
	return s.MemStore.Save(snap)
}

// TestDebouncerRetriesFailedSave: a save the store refused is neither
// counted nor forgotten. It stays pending until a Flush (or a Mark past
// the window) writes it, and a failing store is not retried on every
// Mark inside the window.
func TestDebouncerRetriesFailedSave(t *testing.T) {
	type step struct {
		op           string // "mark" or "flush"
		coeff        float64
		wantErr      bool
		wantSaves    int64
		wantAttempts int
		wantStored   float64 // the stored coeff; -1 = nothing stored yet
	}
	for _, c := range []struct {
		name  string
		fails int
		steps []step
	}{
		{"flush retries a failed mark", 1, []step{
			{op: "mark", coeff: 1, wantErr: true, wantSaves: 0, wantAttempts: 1, wantStored: -1},
			{op: "flush", wantSaves: 1, wantAttempts: 2, wantStored: 1},
			{op: "flush", wantSaves: 1, wantAttempts: 2, wantStored: 1},
		}},
		{"marks inside the window do not retry", 1, []step{
			{op: "mark", coeff: 1, wantErr: true, wantSaves: 0, wantAttempts: 1, wantStored: -1},
			{op: "mark", coeff: 2, wantSaves: 0, wantAttempts: 1, wantStored: -1},
			{op: "flush", wantSaves: 1, wantAttempts: 2, wantStored: 2},
		}},
		{"flush reports every failure until the store recovers", 2, []step{
			{op: "mark", coeff: 1, wantErr: true, wantSaves: 0, wantAttempts: 1, wantStored: -1},
			{op: "flush", wantErr: true, wantSaves: 0, wantAttempts: 2, wantStored: -1},
			{op: "flush", wantSaves: 1, wantAttempts: 3, wantStored: 1},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := &flakyStore{fails: c.fails}
			d := NewDebouncer(store, time.Hour)
			for i, s := range c.steps {
				var err error
				switch s.op {
				case "mark":
					err = d.Mark(snapWithCoeff(s.coeff))
				case "flush":
					err = d.Flush()
				}
				if (err != nil) != s.wantErr {
					t.Fatalf("step %d (%s): err = %v, want error %v", i, s.op, err, s.wantErr)
				}
				if got := d.Saves(); got != s.wantSaves {
					t.Errorf("step %d (%s): saves = %d, want %d", i, s.op, got, s.wantSaves)
				}
				if store.attempts != s.wantAttempts {
					t.Errorf("step %d (%s): store attempts = %d, want %d", i, s.op, store.attempts, s.wantAttempts)
				}
				stored := -1.0
				if store.snap != nil {
					stored = store.snap.Coeffs["x"]
				}
				if stored != s.wantStored {
					t.Errorf("step %d (%s): stored coeff = %v, want %v", i, s.op, stored, s.wantStored)
				}
			}
		})
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
