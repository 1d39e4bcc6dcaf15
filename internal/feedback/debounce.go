package feedback

import (
	"sync"
	"time"
)

// DefaultSaveInterval is the debounce window the mediator saves under.
const DefaultSaveInterval = 5 * time.Second

// Debouncer coalesces snapshot saves so a stream of absorbed executions
// does not write the store once per query. The first Mark after
// construction (or after an interval has elapsed since the last save)
// persists immediately; Marks inside the window only record that state
// is dirty and stash the capture closure. Flush writes the pending
// snapshot, making close-time persistence complete regardless of where
// the window stood.
//
// The capture closure is invoked synchronously inside Mark/Flush, under
// the debouncer's mutex; callers already serialize model mutation (the
// mediator holds its write lock around absorption), so captures always
// see a consistent model. There is no background goroutine: saves ride
// on the query path, at most once per interval.
type Debouncer struct {
	store    Store
	interval time.Duration

	mu       sync.Mutex
	capture  func() *Snapshot
	dirty    bool
	lastSave time.Time
	saves    int64
}

// NewDebouncer wraps a store with a save window; interval <= 0 uses
// DefaultSaveInterval.
func NewDebouncer(store Store, interval time.Duration) *Debouncer {
	if interval <= 0 {
		interval = DefaultSaveInterval
	}
	return &Debouncer{store: store, interval: interval}
}

// Mark records that the model changed. capture must build the snapshot
// to persist; it runs only when a save is actually due (or later, from
// Flush).
func (d *Debouncer) Mark(capture func() *Snapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.capture = capture
	d.dirty = true
	if !d.lastSave.IsZero() && time.Since(d.lastSave) < d.interval {
		return nil
	}
	return d.saveLocked()
}

// Flush persists the pending snapshot if any mark is outstanding. The
// mediator calls it from Close so the final state always lands in the
// store.
func (d *Debouncer) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.dirty {
		return nil
	}
	return d.saveLocked()
}

// saveLocked captures and writes the snapshot; callers hold d.mu. A
// failed write leaves the state dirty and uncounted, so the next Mark
// past the window or Flush retries it; lastSave is stamped either way,
// so a failing store is retried once per interval, not once per query.
func (d *Debouncer) saveLocked() error {
	if d.capture == nil {
		return nil
	}
	d.lastSave = time.Now()
	if err := d.store.Save(d.capture()); err != nil {
		return err
	}
	d.dirty = false
	d.saves++
	return nil
}

// Saves reports how many snapshot writes reached the store.
func (d *Debouncer) Saves() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.saves
}
