package feedback

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// SnapshotVersion is the current snapshot format version. Snapshots with
// a different version load as empty: corrections are cheap to relearn,
// silently misreading a foreign format is not.
const SnapshotVersion = 1

// ScopeState is one q-error accumulator's persisted state.
type ScopeState struct {
	Count  int64     `json:"count"`
	Max    float64   `json:"max"`
	Window []float64 `json:"window,omitempty"`
}

// Snapshot is the JSON-serializable state of the feedback loop: learned
// cardinality corrections and q-error accumulators. Keys it does not
// name, such as the "coeffs" of an older snapshot, are ignored on load.
type Snapshot struct {
	Version int                   `json:"version"`
	Cards   []CardCorrection      `json:"cards,omitempty"`
	Scopes  map[string]ScopeState `json:"scopes,omitempty"`
}

// Store persists feedback snapshots across mediator restarts.
type Store interface {
	// Save replaces the persisted snapshot.
	Save(*Snapshot) error
	// Load returns the persisted snapshot. A missing or corrupt snapshot
	// loads as an empty one with no error: learned corrections are an
	// optimization, never a reason to refuse startup.
	Load() (*Snapshot, error)
}

// FileStore persists snapshots as a JSON file, written atomically
// (temp file + rename) so a crash mid-save never corrupts the previous
// snapshot.
type FileStore struct {
	Path string
}

// NewFileStore returns a file-backed store at path.
func NewFileStore(path string) *FileStore { return &FileStore{Path: path} }

// Save implements Store.
func (s *FileStore) Save(snap *Snapshot) error {
	if snap == nil {
		snap = &Snapshot{}
	}
	snap.Version = SnapshotVersion
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(s.Path)
	tmp, err := os.CreateTemp(dir, ".feedback-*.json")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, s.Path)
}

// Load implements Store. Any unreadable, unparsable or wrong-version file
// yields an empty snapshot and no error.
func (s *FileStore) Load() (*Snapshot, error) {
	empty := &Snapshot{Version: SnapshotVersion}
	data, err := os.ReadFile(s.Path)
	if err != nil {
		return empty, nil
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return empty, nil
	}
	if snap.Version != SnapshotVersion {
		return empty, nil
	}
	return sanitize(&snap), nil
}

// sanitize drops snapshot entries no statistic should absorb (negative
// counts, non-finite factors); a hand-edited or bit-rotted snapshot
// degrades to fewer corrections, never to a poisoned model or a panic.
func sanitize(s *Snapshot) *Snapshot {
	out := &Snapshot{Version: s.Version}
	for _, c := range s.Cards {
		if c.Wrapper == "" || c.Collection == "" || c.Base < 0 ||
			c.Factor <= 0 || isBad(c.Factor) || c.Samples < 0 || c.ObjectSize < 0 {
			continue
		}
		out.Cards = append(out.Cards, c)
	}
	if len(s.Scopes) > 0 {
		out.Scopes = make(map[string]ScopeState, len(s.Scopes))
		for key, st := range s.Scopes {
			if key == "" || st.Count < 0 || isBad(st.Max) {
				continue
			}
			w := st.Window[:0:0]
			for _, q := range st.Window {
				if q >= 1 && !isBad(q) {
					w = append(w, q)
				}
			}
			st.Window = w
			out.Scopes[key] = st
		}
	}
	return out
}

// Capture assembles a snapshot from the live recorder and adjuster
// (either may be nil).
func Capture(rec *Recorder, adj *Adjuster) *Snapshot {
	snap := &Snapshot{Version: SnapshotVersion}
	if adj != nil {
		snap.Cards = adj.Corrections()
	}
	if rec != nil {
		snap.Scopes = rec.scopeStates()
	}
	return snap
}

// Restore loads a snapshot into the recorder and adjuster (either may be
// nil). Catalog statistics are not touched here: the adjuster re-applies
// its corrections when collections register (Adjuster.Reapply).
func Restore(snap *Snapshot, rec *Recorder, adj *Adjuster) {
	if snap == nil {
		return
	}
	if adj != nil {
		adj.restoreCards(snap.Cards)
	}
	if rec != nil && len(snap.Scopes) > 0 {
		rec.restoreScopes(snap.Scopes)
	}
}
