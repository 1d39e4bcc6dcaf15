package router

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"disco/internal/algebra"
	"disco/internal/proto"
	"disco/internal/sqlparser"
	"disco/internal/stats"
	"disco/internal/types"
)

// Partition declares one collection's partitionable integer column and
// its value domain [Lo, Hi). Every replica holds the full collection
// (replicated demo federations), so range-slicing the domain across
// replicas and unioning the shard answers reproduces the single-replica
// answer exactly — the scatter tier trades one replica's scan latency
// for the fan-out of many.
type Partition struct {
	Collection string
	Column     string
	Lo, Hi     int64
}

// DemoPartitions declares the partitionable collections of the demo
// federation (serving.NewDemoFederation at the given AtomicParts
// cardinality).
func DemoPartitions(parts int) []Partition {
	return []Partition{
		{Collection: "AtomicParts", Column: "id", Lo: 0, Hi: int64(parts)},
		{Collection: "Inspections", Column: "part", Lo: 0, Hi: int64(parts)},
		{Collection: "Suppliers", Column: "sid", Lo: 0, Hi: 500},
	}
}

// scatterEligible decides whether q can scatter: a plain scan of one
// partitioned collection. Aggregates, grouping, DISTINCT and ORDER BY
// all need a global view (their shard-merge is not a bag union), joins
// would multiply shards, a wrapper pin overrides placement, and an
// equality conjunct on the partition column means a point lookup —
// exactly the statement plan-affine routing serves best from one
// replica's caches.
func scatterEligible(q *sqlparser.Query, parts []Partition) (Partition, bool) {
	if len(q.From) != 1 || q.From[0].Wrapper != "" {
		return Partition{}, false
	}
	if q.Distinct || len(q.GroupBy) > 0 || len(q.OrderBy) > 0 {
		return Partition{}, false
	}
	for _, it := range q.Items {
		if it.Agg != nil {
			return Partition{}, false
		}
	}
	var part Partition
	found := false
	for _, p := range parts {
		if strings.EqualFold(p.Collection, q.From[0].Collection) && p.Hi > p.Lo {
			part = p
			found = true
			break
		}
	}
	if !found {
		return Partition{}, false
	}
	for _, c := range q.Where.SelectionComparisons() {
		if c.Op == stats.CmpEQ && strings.EqualFold(c.Left.Attr, part.Column) &&
			(c.Left.Collection == "" || strings.EqualFold(c.Left.Collection, part.Collection)) {
			return Partition{}, false
		}
	}
	return part, true
}

// shardSQL renders shard k of n: q with the partition column bounded to
// the k-th slice of the domain. The first shard's lower bound and the
// last's upper bound stay open, so the shards cover the whole domain —
// rows outside the declared [Lo, Hi) land in the edge shards and the
// union stays exact even if the declaration underestimates the data.
func shardSQL(q *sqlparser.Query, p Partition, k, n int) string {
	shard := *q
	shard.Where = q.Where.Clone()
	col := algebra.Ref{Collection: q.From[0].Collection, Attr: p.Column}
	span := p.Hi - p.Lo
	if shard.Where == nil {
		shard.Where = &algebra.Predicate{}
	}
	if k > 0 {
		lo := p.Lo + span*int64(k)/int64(n)
		shard.Where.Conjuncts = append(shard.Where.Conjuncts,
			algebra.Comparison{Left: col, Op: stats.CmpGE, RightConst: types.Int(lo)})
	}
	if k < n-1 {
		hi := p.Lo + span*int64(k+1)/int64(n)
		shard.Where.Conjuncts = append(shard.Where.Conjuncts,
			algebra.Comparison{Left: col, Op: stats.CmpLT, RightConst: types.Int(hi)})
	}
	return shard.String()
}

// shardResult is one shard's outcome.
type shardResult struct {
	resp  *proto.Response // nil if the shard failed everywhere
	addr  string          // replica addr that served the shard
	tried []string        // replica addrs that failed the shard
}

// scatter executes q as len(healthy) range shards, one per live replica,
// and merges the answers by concatenating their rows in shard order (a
// bag union). A shard whose home replica fails rotates through the
// other live replicas; only a shard that fails everywhere degrades the
// answer to Partial, with the replicas it tried listed in Excluded —
// the same partial-answer contract the mediator uses for dead wrappers.
func (rt *Router) scatter(q *sqlparser.Query, part Partition, healthy []int) *proto.Response {
	n := len(healthy)
	rt.scatteredTotal.Add(1)
	results := make([]shardResult, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sreq := &proto.Request{Op: "query", SQL: shardSQL(q, part, k, n)}
			for off := 0; off < n; off++ {
				r := rt.replicas[healthy[(k+off)%n]]
				if r.isDown() {
					continue
				}
				r.scattered.Add(1)
				resp, err := rt.exchange(r, sreq)
				if err != nil || resp.Overloaded {
					results[k].tried = append(results[k].tried, r.addr)
					if err != nil {
						rt.failovers.Add(1)
					} else {
						rt.shedRetries.Add(1)
					}
					continue
				}
				// A semantic failure (parse/bind error) is identical on
				// every replica: report it, don't fail over.
				results[k].resp = resp
				results[k].addr = r.addr
				return
			}
		}(k)
	}
	wg.Wait()

	merged := &proto.Response{OK: true, Replica: "", Shards: n}
	var excluded []string
	succeeded := 0
	for _, res := range results {
		if res.resp == nil {
			excluded = append(excluded, res.tried...)
			continue
		}
		if !res.resp.OK {
			return res.resp // semantic error, same answer everywhere
		}
		succeeded++
		merged.ShardDetail = append(merged.ShardDetail, proto.ShardServed{
			Replica:   res.addr,
			ElapsedMS: res.resp.ElapsedMS,
			Rows:      len(res.resp.Rows),
		})
		if merged.Columns == nil {
			merged.Columns = res.resp.Columns
		}
		if res.resp.ElapsedMS > merged.ElapsedMS {
			// Shards run in parallel: the merged latency is the slowest
			// shard, matching how the optimizer prices concurrent submits.
			merged.ElapsedMS = res.resp.ElapsedMS
		}
		if res.resp.Partial {
			merged.Partial = true
			merged.Excluded = append(merged.Excluded, res.resp.Excluded...)
		}
		merged.Rows = append(merged.Rows, res.resp.Rows...)
	}
	if succeeded == 0 {
		return &proto.Response{Error: "router: every shard failed on every live replica"}
	}
	if len(excluded) > 0 {
		merged.Partial = true
		merged.Excluded = append(merged.Excluded, excluded...)
	}
	merged.Excluded = canonExcluded(merged.Excluded)
	if merged.Partial {
		rt.partials.Add(1)
	}
	merged.Replica = "scatter:" + strconv.Itoa(succeeded)
	return merged
}

// canonExcluded canonicalizes a merged exclusion list. It merges two
// sources — the Excluded lists of partial shard answers and the tried
// lists of shards that failed everywhere — so the same name can show up
// several times, in whatever order the shard goroutines completed.
// Collapsing duplicates and sorting makes the degraded-answer contract
// deterministic: equal failures yield equal responses.
func canonExcluded(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := dedupe(in)
	sort.Strings(out)
	return out
}

func dedupe(in []string) []string {
	seen := make(map[string]struct{}, len(in))
	var out []string
	for _, s := range in {
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}
