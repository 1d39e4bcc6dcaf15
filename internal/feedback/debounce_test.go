package feedback

import (
	"errors"
	"testing"
	"time"
)

// snapWithBase captures a snapshot whose one card correction carries v
// as its base: the payload the tests follow through the store.
func snapWithBase(v int64) func() *Snapshot {
	return func() *Snapshot {
		return &Snapshot{Version: SnapshotVersion,
			Cards: []CardCorrection{{Wrapper: "w", Collection: "c", Base: v, Factor: 1}}}
	}
}

// storedBase is the payload of a stored snapshot; -1 when nothing is
// stored.
func storedBase(s *Snapshot) int64 {
	if s == nil || len(s.Cards) == 0 {
		return -1
	}
	return s.Cards[0].Base
}

func TestDebouncerCoalesces(t *testing.T) {
	store := NewMemStore()
	d := NewDebouncer(store, time.Hour)
	for i := 0; i < 50; i++ {
		if err := d.Mark(snapWithBase(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Saves(); got != 1 {
		t.Errorf("saves inside the window = %d, want 1", got)
	}
	// The store holds the first capture until a flush.
	snap, _ := store.Load()
	if got := storedBase(snap); got != 0 {
		t.Errorf("pre-flush stored base = %v, want 0 (first mark)", got)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := d.Saves(); got != 2 {
		t.Errorf("saves after flush = %d, want 2", got)
	}
	snap, _ = store.Load()
	if got := storedBase(snap); got != 49 {
		t.Errorf("flushed base = %v, want 49 (latest mark)", got)
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
	if err := d.Mark(snapWithBase(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Mark(snapWithBase(2)); err != nil {
		t.Fatal(err)
	}
	if got := d.Saves(); got != 1 {
		t.Fatalf("saves inside window = %d, want 1", got)
	}
	time.Sleep(25 * time.Millisecond)
	if err := d.Mark(snapWithBase(3)); err != nil {
		t.Fatal(err)
	}
	if got := d.Saves(); got != 2 {
		t.Errorf("mark past the window must save, saves = %d", got)
	}
	snap, _ := store.Load()
	if got := storedBase(snap); got != 3 {
		t.Errorf("stored base = %v, want 3", got)
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
		base         int64
		wantErr      bool
		wantSaves    int64
		wantAttempts int
		wantStored   int64 // the stored base; -1 = nothing stored yet
	}
	for _, c := range []struct {
		name  string
		fails int
		steps []step
	}{
		{"flush retries a failed mark", 1, []step{
			{op: "mark", base: 1, wantErr: true, wantSaves: 0, wantAttempts: 1, wantStored: -1},
			{op: "flush", wantSaves: 1, wantAttempts: 2, wantStored: 1},
			{op: "flush", wantSaves: 1, wantAttempts: 2, wantStored: 1},
		}},
		{"marks inside the window do not retry", 1, []step{
			{op: "mark", base: 1, wantErr: true, wantSaves: 0, wantAttempts: 1, wantStored: -1},
			{op: "mark", base: 2, wantSaves: 0, wantAttempts: 1, wantStored: -1},
			{op: "flush", wantSaves: 1, wantAttempts: 2, wantStored: 2},
		}},
		{"flush reports every failure until the store recovers", 2, []step{
			{op: "mark", base: 1, wantErr: true, wantSaves: 0, wantAttempts: 1, wantStored: -1},
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
					err = d.Mark(snapWithBase(s.base))
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
				if stored := storedBase(store.snap); stored != s.wantStored {
					t.Errorf("step %d (%s): stored base = %v, want %v", i, s.op, stored, s.wantStored)
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
