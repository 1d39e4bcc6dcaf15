// Package router is the multi-mediator federation tier: a cost-based
// request router fronting N discod replicas. It extends the paper's
// mediator cost-model discipline one level up — just as the mediator
// prices heterogeneous *sources* with a blended cost hierarchy, the
// router prices heterogeneous *replicas* with feedback-measured speed
// and live load, and routes each statement to the replica the pricing
// says will answer it cheapest, preferring the replica whose caches
// already hold the statement's plan.
//
// Three mechanisms (DESIGN.md §13):
//
//   - plan-affine consistent hashing: statements hash by their
//     normalized text (mediator.NormalizeSQL — the plan-cache key) onto
//     a weighted ring, so a repeated statement lands on the replica
//     that already prepared and cached it. Weights blend static
//     capacity with EWMA-measured speed, so a slow replica owns
//     proportionally less of the ring.
//   - catalog gossip: epoch-bumping operations (reregister, setlink)
//     fan out to every replica, keeping the replicated catalogs
//     aligned; the router then re-warms hot statements so the flushed
//     caches recover without client-visible cold misses.
//   - scatter-gather partitioned scans: eligible single-collection
//     scans split into per-replica range shards merged through the
//     vexec batch pipeline, trading one replica's latency for the
//     fan-out of many.
package router

import (
	"fmt"
	"math"
	"sort"
)

// DefaultVnodesPerUnit is the ring resolution: virtual nodes per unit of
// replica weight. Higher values smooth the key distribution at the cost
// of a larger (still tiny) sorted point array.
const DefaultVnodesPerUnit = 64

// ringPoint is one virtual node: a position on the hash circle owned by
// a replica.
type ringPoint struct {
	hash    uint64
	replica int
}

// Ring is a weighted consistent-hash ring over replica indices. A
// replica with weight w owns ~round(w*vnodesPerUnit) virtual nodes whose
// positions derive only from the replica name and vnode ordinal — so
// changing a weight adds or removes a suffix of that replica's vnode
// list and every other point stays fixed (minimal key movement).
type Ring struct {
	points []ringPoint
	counts []int
}

// fnv64a is the 64-bit FNV-1a string hash keying both vnode positions
// and lookups, passed through a finalizer: raw FNV of short, similar
// strings ("addr#0", "addr#1", ...) clusters on the circle, and
// clustered vnodes skew arc lengths far from the weights. The
// splitmix64 finalizer avalanches every input bit across the output,
// restoring uniform placement.
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

// BuildRing places names[i] on the circle with round(weights[i] *
// vnodesPerUnit) virtual nodes (minimum 1 for any positive weight).
// A non-positive weight excludes the replica entirely — the down state.
// vnodesPerUnit <= 0 uses DefaultVnodesPerUnit.
func BuildRing(names []string, weights []float64, vnodesPerUnit int) *Ring {
	if vnodesPerUnit <= 0 {
		vnodesPerUnit = DefaultVnodesPerUnit
	}
	r := &Ring{counts: make([]int, len(names))}
	for i, name := range names {
		if i >= len(weights) || weights[i] <= 0 {
			continue
		}
		vn := int(math.Round(weights[i] * float64(vnodesPerUnit)))
		if vn < 1 {
			vn = 1
		}
		r.counts[i] = vn
		for j := 0; j < vn; j++ {
			r.points = append(r.points, ringPoint{hash: fnv64a(fmt.Sprintf("%s#%d", name, j)), replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// Lookup returns the replica owning key: the successor vnode clockwise
// from the key's hash. Returns -1 on an empty ring.
func (r *Ring) Lookup(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].replica
}

// Successors returns up to n distinct replicas in clockwise vnode order
// starting at key's owner — the failover preference order for the key.
func (r *Ring) Successors(key string, n int) []int {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := fnv64a(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	seen := make(map[int]struct{}, n)
	var out []int
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.replica]; dup {
			continue
		}
		seen[p.replica] = struct{}{}
		out = append(out, p.replica)
	}
	return out
}

// VnodeCount reports replica i's virtual-node population (0 = excluded).
func (r *Ring) VnodeCount(i int) int {
	if i < 0 || i >= len(r.counts) {
		return 0
	}
	return r.counts[i]
}
