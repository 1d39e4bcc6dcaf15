package feedback

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzFeedbackSnapshot feeds arbitrary bytes through the JSON file store:
// whatever is on disk, Load must return a usable (possibly empty)
// snapshot and never panic, and a snapshot that does load must survive a
// Save/Load round trip unchanged — the sanitizer is idempotent.
func FuzzFeedbackSnapshot(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"cards":[{"wrapper":"w1","collection":"Employee","base":1000,"factor":0.1,"samples":4}]}`))
	f.Add([]byte(`{"version":1,"cards":[{"wrapper":"","collection":"c","base":-1,"factor":1e999}]}`))
	f.Add([]byte(`{"version":1,"coeffs":{"MedPerPred":0.006,"bad":-1}}`))
	f.Add([]byte(parentFormat))
	f.Add([]byte(`{"version":1,"scopes":{"c w1/submit":{"count":3,"max":10,"window":[1,2,10]}}}`))
	f.Add([]byte(`{"version":99,"cards":[{"wrapper":"w","collection":"c","base":1,"factor":2}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "snap.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		store := NewFileStore(path)
		snap, err := store.Load()
		if err != nil {
			t.Fatalf("Load must never fail, got %v", err)
		}
		if snap == nil {
			t.Fatal("Load must never return nil")
		}
		// Whatever loaded must be absorbable without a panic …
		rec := NewRecorder(8)
		adj := NewAdjuster()
		Restore(snap, rec, adj)

		// … and must round-trip bit-stable through Save/Load: sanitize is
		// a fixpoint, so nothing survives the first load that the second
		// would still want to drop.
		if err := store.Save(snap); err != nil {
			t.Fatalf("Save of a loaded snapshot must work: %v", err)
		}
		again, err := store.Load()
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
		if !snapshotsEqual(snap, again) {
			a, _ := json.Marshal(snap)
			b, _ := json.Marshal(again)
			t.Fatalf("snapshot not stable under Save/Load:\n first=%s\nsecond=%s", a, b)
		}
	})
}

// snapshotsEqual compares snapshots through their JSON form, which
// normalizes nil-vs-empty containers.
func snapshotsEqual(a, b *Snapshot) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	if errA != nil || errB != nil {
		return false
	}
	var ma, mb any
	if json.Unmarshal(ja, &ma) != nil || json.Unmarshal(jb, &mb) != nil {
		return false
	}
	return reflect.DeepEqual(ma, mb)
}
