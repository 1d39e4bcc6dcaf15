// Package router is the multi-mediator federation tier: a cost-based
// request router fronting N discod replicas. It extends the paper's
// mediator cost-model discipline one level up — just as the mediator
// prices heterogeneous *sources* with a blended cost hierarchy, the
// router prices heterogeneous *replicas* with static capacity, measured
// latency and live load, and routes each statement to the replica the
// pricing says will answer it cheapest, preferring the replica whose
// caches already hold the statement's plan.
//
// Three mechanisms (DESIGN.md §13):
//
//   - plan-affine dispatch: statements hash by their normalized text
//     (mediator.NormalizeSQL — the plan-cache key) into a fixed
//     capacity-weighted rendezvous order of the replicas, so a repeated
//     statement lands on the replica that already prepared and cached
//     it. The first live replica in the order serves unless its
//     per-request price (queue × measured latency / capacity) exceeds
//     twice the cheapest replica's; that escape is the one mechanism
//     that moves load off a slow or drowning replica.
//   - catalog gossip: epoch-bumping operations (reregister, setlink)
//     fan out to every replica, keeping the replicated catalogs
//     aligned; the router then re-warms hot statements so the flushed
//     caches recover without client-visible cold misses.
//   - scatter-gather partitioned scans: eligible single-collection
//     scans split into per-replica range shards whose answers are
//     concatenated in shard order, trading one replica's latency for
//     the fan-out of many.
package router

import (
	"math"
	"sort"
)

// Ring places statement keys on replicas by weighted rendezvous
// (highest-random-weight) hashing: every replica scores a key with
// w / -ln(u), u a uniform draw hashed from the replica name and the
// key, and the replicas in descending score order are the key's
// preference order. A replica wins a share of keys proportional to its
// weight; adding a replica moves keys only to it, and skipping one
// (down) moves only its own keys to their next choice. The weights are
// fixed at build, so a Ring is immutable and safe to read without a lock.
type Ring struct {
	names   []string
	weights []float64
}

// BuildRing orders names[i] with weight weights[i] (> 0).
func BuildRing(names []string, weights []float64) Ring {
	return Ring{names: names, weights: weights}
}

// fnv64a is the 64-bit FNV-1a string hash passed through a splitmix64
// finalizer: raw FNV of short, similar strings is far from uniform in
// its high bits, and the finalizer avalanches every input bit across
// the output.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Order returns every replica index, highest score for key first; equal
// scores keep index order.
func (r Ring) Order(key string) []int {
	order := make([]int, len(r.names))
	score := make([]float64, len(r.names))
	for i, name := range r.names {
		order[i] = i
		u := (float64(fnv64a(name+"\x00"+key)>>11) + 0.5) / (1 << 53) // in (0, 1)
		score[i] = r.weights[i] / -math.Log(u)
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] > score[order[b]] })
	return order
}
