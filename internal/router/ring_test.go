package router

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("SELECT x FROM t WHERE id = %d", i)
	}
	return keys
}

// owner is the replica dispatch prefers for key: the first one in the
// key's order that is not down — how pick and warmStatements read it.
func owner(r Ring, key string, down map[int]bool) int {
	for _, idx := range r.Order(key) {
		if !down[idx] {
			return idx
		}
	}
	return -1
}

// TestRingDistributionTracksWeights: with weights 1:2:3 the key shares
// must track the weights within ±10% (rendezvous hashing is
// statistical, not exact).
func TestRingDistributionTracksWeights(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1"}
	weights := []float64{1, 2, 3}
	r := BuildRing(names, weights)
	counts := make([]int, len(names))
	keys := ringKeys(30000)
	for _, k := range keys {
		idx := owner(r, k, nil)
		if idx < 0 || idx >= len(names) {
			t.Fatalf("owner = %d", idx)
		}
		counts[idx]++
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	for i, c := range counts {
		want := weights[i] / wsum
		got := float64(c) / float64(len(keys))
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("replica %d: share %.3f, want %.3f ±10%%", i, got, want)
		}
	}
}

// TestRingJoinMovesKeysOnlyToJoiner: adding a replica may only move
// keys TO the new replica (the consistent-hash property), and moves
// roughly its fair share.
func TestRingJoinMovesKeysOnlyToJoiner(t *testing.T) {
	before := BuildRing([]string{"a:1", "b:1", "c:1"}, []float64{1, 1, 1})
	after := BuildRing([]string{"a:1", "b:1", "c:1", "d:1"}, []float64{1, 1, 1, 1})
	keys := ringKeys(20000)
	moved := 0
	for _, k := range keys {
		was, now := owner(before, k, nil), owner(after, k, nil)
		if was == now {
			continue
		}
		moved++
		if now != 3 {
			t.Fatalf("key %q moved from %d to %d, not to the joiner", k, was, now)
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("join moved %.1f%% of keys, want roughly 25%%", 100*frac)
	}
}

// TestRingLeaveKeepsSurvivorKeys: skipping a down replica must not move
// any key owned by a survivor.
func TestRingLeaveKeepsSurvivorKeys(t *testing.T) {
	r := BuildRing([]string{"a:1", "b:1", "c:1"}, []float64{1, 1, 1})
	down := map[int]bool{1: true}
	reassigned := 0
	for _, k := range ringKeys(20000) {
		was, now := owner(r, k, nil), owner(r, k, down)
		if now == 1 {
			t.Fatalf("key %q assigned to the down replica", k)
		}
		if was != 1 && now != was {
			t.Fatalf("key %q owned by survivor %d moved to %d on an unrelated leave", k, was, now)
		}
		if was == 1 {
			reassigned++
		}
	}
	if reassigned == 0 {
		t.Fatal("down replica owned no keys before leaving")
	}
}

// TestRingWeightDecreaseIsPrefixStable: lowering one replica's weight
// may only move keys AWAY from that replica — every other replica's
// score for every key is unchanged.
func TestRingWeightDecreaseIsPrefixStable(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1"}
	before := BuildRing(names, []float64{1, 1, 1})
	after := BuildRing(names, []float64{1, 0.5, 1})
	moved := 0
	for _, k := range ringKeys(20000) {
		was, now := owner(before, k, nil), owner(after, k, nil)
		if was != now && was != 1 {
			t.Fatalf("key %q moved from %d to %d though only replica 1 shrank", k, was, now)
		}
		if was != now {
			moved++
		}
	}
	if moved == 0 {
		t.Error("halving replica 1's weight moved no keys")
	}
}

// TestRingSeededWeightProperty: random weight vectors and down sets
// (seeded) must yield weight-proportional shares among the live
// replicas within a loose factor, down replicas owning nothing, and
// every key resolving.
func TestRingSeededWeightProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := ringKeys(12000)
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(5)
		names := make([]string, n)
		weights := make([]float64, n)
		down := make(map[int]bool)
		var wsum float64
		for i := range names {
			names[i] = fmt.Sprintf("replica-%d:%d", trial, i)
			weights[i] = 0.5 + 3*rng.Float64()
			if rng.Float64() < 0.2 {
				down[i] = true
			} else {
				wsum += weights[i]
			}
		}
		if wsum == 0 {
			delete(down, 0)
			wsum = weights[0]
		}
		r := BuildRing(names, weights)
		counts := make([]int, n)
		for _, k := range keys {
			idx := owner(r, k, down)
			if idx < 0 {
				t.Fatalf("trial %d: no live owner though a replica is up", trial)
			}
			counts[idx]++
		}
		for i := range names {
			share := float64(counts[i]) / float64(len(keys))
			want := weights[i] / wsum
			switch {
			case down[i] && counts[i] > 0:
				t.Errorf("trial %d: down replica %d owns %d keys", trial, i, counts[i])
			case !down[i] && (share < want/2.5 || share > want*2.5):
				t.Errorf("trial %d: replica %d share %.3f, want ~%.3f (weights %v, down %v)",
					trial, i, share, want, weights, down)
			}
		}
	}
}

// TestRingSuccessorsDistinct: the failover order lists every replica
// exactly once, and is a pure function of the key.
func TestRingSuccessorsDistinct(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1", "d:1"}
	r := BuildRing(names, []float64{1, 1, 1, 1})
	for _, k := range ringKeys(200) {
		order := r.Order(k)
		if len(order) != len(names) {
			t.Fatalf("Order returned %d replicas, want %d", len(order), len(names))
		}
		if again := r.Order(k); fmt.Sprint(again) != fmt.Sprint(order) {
			t.Fatalf("Order(%q) = %v then %v", k, order, again)
		}
		seen := make(map[int]bool)
		for _, idx := range order {
			if seen[idx] {
				t.Fatalf("replica %d repeated in order %v", idx, order)
			}
			seen[idx] = true
		}
	}
}
