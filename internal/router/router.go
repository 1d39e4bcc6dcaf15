package router

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/mediator"
	"disco/internal/proto"
	"disco/internal/serving"
	"disco/internal/sqlparser"
)

// ReplicaConfig names one discod replica and its static relative
// capacity (1 = baseline; 2 = provisioned to serve twice the load).
type ReplicaConfig struct {
	Addr     string
	Capacity float64
}

// Failover pacing mirrors the wrapper tier's retry shape
// (wrapper.RetryPolicy) scaled to wall time: a request tries at most
// one more time than there are replicas, with a quick first retry
// doubling up to a tight cap — enough to ride out a replica restart
// without wedging the client.
const (
	retryBackoff    = 25 * time.Millisecond
	retryMaxBackoff = 400 * time.Millisecond
)

func backoff(retry int) time.Duration {
	return min(retryBackoff<<min(retry, 4), retryMaxBackoff)
}

// Config assembles a Router.
type Config struct {
	// Replicas is the replica set (at least one).
	Replicas []ReplicaConfig
	// Partitions declares the partitionable collections for
	// scatter-gather scans (nil = scatter disabled).
	Partitions []Partition
	// DialTimeout bounds replica dials (0 = 2s); RequestTimeout bounds a
	// full request/response exchange (0 = 30s).
	DialTimeout    time.Duration
	RequestTimeout time.Duration
	// PollInterval paces the background stats poll that feeds the cost
	// model (0 = 2s; negative disables the loop — tests drive PollNow).
	PollInterval time.Duration
	// WarmLimit bounds hot statements re-warmed after a gossip or a
	// replica epoch change (0 = 32).
	WarmLimit int
	// Now supplies the timestamps the router uses to measure replica
	// request latency (nil = time.Now). The rest of the system bills
	// I/O to netsim execution meters; the router fronts real TCP
	// replicas, so its clock is injected — tests substitute a
	// deterministic source and production uses wall time.
	Now func() time.Time
}

// hotCap bounds the tracked hot-statement LRU.
const hotCap = 64

// Router fronts a replica set with cost-based routing, catalog gossip
// and scatter-gather scans. It implements serving.Handler, so it mounts
// on the same ConnServer transport as a single mediator.
type Router struct {
	cfg         Config
	replicas    []*replicaState
	ring        Ring
	maxAttempts int

	hot hotTracker

	routedTotal    atomic.Int64
	scatteredTotal atomic.Int64
	failovers      atomic.Int64
	shedRetries    atomic.Int64
	gossips        atomic.Int64
	warms          atomic.Int64
	partials       atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	loopWG   sync.WaitGroup
}

// New builds a router over cfg's replica set and starts the stats-poll
// loop (unless PollInterval < 0). Close releases it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: at least one replica required")
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, rc := range cfg.Replicas {
		if seen[rc.Addr] {
			return nil, fmt.Errorf("router: replica %s listed twice", rc.Addr)
		}
		seen[rc.Addr] = true
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.WarmLimit <= 0 {
		cfg.WarmLimit = 32
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	rt := &Router{cfg: cfg, maxAttempts: len(cfg.Replicas) + 1, stop: make(chan struct{})}
	rt.hot.cap = hotCap
	names := make([]string, len(cfg.Replicas))
	weights := make([]float64, len(cfg.Replicas))
	for i, rc := range cfg.Replicas {
		r := newReplicaState(rc.Addr, rc.Capacity)
		rt.replicas = append(rt.replicas, r)
		names[i], weights[i] = r.addr, r.capacity
	}
	rt.ring = BuildRing(names, weights)
	if cfg.PollInterval >= 0 {
		interval := cfg.PollInterval
		if interval == 0 {
			interval = 2 * time.Second
		}
		rt.loopWG.Add(1)
		go rt.pollLoop(interval)
	}
	return rt, nil
}

// Close stops the background loop and drops pooled connections. The
// ConnServer Shutdown hook calls it.
func (rt *Router) Close() error {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.loopWG.Wait()
	for _, r := range rt.replicas {
		r.drainPool()
	}
	return nil
}

func (rt *Router) pollLoop(interval time.Duration) {
	defer rt.loopWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.PollNow()
		}
	}
}

// Handle implements serving.Handler: the router speaks the same line
// protocol as a single discod, so clients need no changes.
func (rt *Router) Handle(req *proto.Request) *proto.Response {
	switch req.Op {
	case "ping":
		return &proto.Response{OK: true, Text: "pong (router)"}

	case "stats":
		data, err := json.Marshal(rt.Stats())
		if err != nil {
			return &proto.Response{Error: err.Error()}
		}
		return &proto.Response{OK: true, Text: string(data)}

	case "reregister", "setlink":
		return rt.gossip(req)

	case "query":
		if resp := rt.tryScatter(req); resp != nil {
			return resp
		}
		key := mediator.NormalizeSQL(req.SQL)
		rt.hot.note(key, req.SQL)
		return rt.forward(req, key)

	case "explain", "explain-analyze", "warm":
		// Plan-affine: the same replica that would serve the query
		// explains or warms it, so the output reflects the caches the
		// query would actually hit.
		return rt.forward(req, mediator.NormalizeSQL(req.SQL))

	case "catalog", "history", "feedback":
		// Replica-local diagnostics: any healthy replica answers; route
		// to the cheapest.
		return rt.forward(req, "")

	default:
		return &proto.Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// forward dispatches one request with plan affinity (key) and
// failover: transport failures and sheds burn retry attempts against the
// next-preferred replicas with backoff in between. An empty key skips
// affinity and goes straight to the cheapest replica.
func (rt *Router) forward(req *proto.Request, key string) *proto.Response {
	tried := make(map[int]bool, len(rt.replicas))
	var lastErr error
	sheds, fails := 0, 0
	for attempt := 0; attempt < rt.maxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff(attempt - 1))
		}
		idx := rt.pick(key, tried)
		if idx < 0 {
			// Every live replica tried: clear the exclusions so later
			// attempts may revisit (a shed replica may admit after
			// backoff; a down one may have revived).
			tried = make(map[int]bool, len(rt.replicas))
			idx = rt.pick(key, tried)
			if idx < 0 {
				break
			}
		}
		r := rt.replicas[idx]
		resp, err := rt.exchange(r, req)
		if err != nil {
			tried[idx] = true
			lastErr = err
			fails++
			rt.failovers.Add(1)
			continue
		}
		if resp.Overloaded {
			tried[idx] = true
			sheds++
			rt.shedRetries.Add(1)
			continue
		}
		if resp.Replica == "" {
			resp.Replica = r.addr
		}
		return resp
	}
	if lastErr == nil && sheds > 0 {
		return &proto.Response{
			Error:      fmt.Sprintf("router: all %d attempts shed by admission control", rt.maxAttempts),
			Overloaded: true,
		}
	}
	if lastErr != nil {
		return &proto.Response{Error: fmt.Sprintf("router: no replica answered after %d attempts (%d transport failures, %d sheds): %v",
			rt.maxAttempts, fails, sheds, lastErr)}
	}
	return &proto.Response{Error: "router: no replica available"}
}

// exchange performs one priced request on a replica: in-flight tracking,
// latency observation (on the injected clock) into the EWMA, liveness
// marking.
func (rt *Router) exchange(r *replicaState, req *proto.Request) (*proto.Response, error) {
	rt.routedTotal.Add(1)
	r.routed.Add(1)
	r.inflight.Add(1)
	start := rt.cfg.Now()
	resp, err := r.send(req, rt.cfg.DialTimeout, rt.cfg.RequestTimeout)
	r.inflight.Add(-1)
	if err != nil {
		r.markFailure()
		return nil, err
	}
	r.markSuccess()
	r.observe(float64(rt.cfg.Now().Sub(start).Microseconds()) / 1000)
	if resp.Overloaded {
		r.shedSeen.Add(1)
	}
	return resp, nil
}

// pick chooses the replica for key among live, untried replicas: the
// first of them in the key's rendezvous order (plan-cache affinity)
// unless its dispatch cost exceeds twice the cheapest candidate's — the
// escape that sheds load off a replica the cost model says is slow or
// drowning without giving up affinity in the common case. An empty key
// is pure least-cost.
func (rt *Router) pick(key string, tried map[int]bool) int {
	fallback := meanEwmaMS(rt.replicas)
	best, primary := -1, -1
	var bestCost float64
	for i, r := range rt.replicas {
		if tried[i] || r.isDown() {
			continue
		}
		c := r.cost(fallback)
		if best < 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	if best < 0 {
		return -1
	}
	if key != "" {
		for _, idx := range rt.ring.Order(key) {
			if !tried[idx] && !rt.replicas[idx].isDown() {
				primary = idx
				break
			}
		}
	}
	if primary < 0 || primary == best {
		return best
	}
	if rt.replicas[primary].cost(fallback) > 2*bestCost {
		return best
	}
	return primary
}

// gossip fans an epoch-bumping administrative op (reregister, setlink)
// to every replica in parallel — the catalog-replication path. The op
// succeeds if at least one replica acked; afterwards the router re-warms
// hot statements so the flushed caches recover before clients notice.
// Nothing retries a replica that missed the op: unless it restarts it
// keeps its old epoch, so no poll notices it, the op is never
// re-applied there, and only the k/n in the reply shows the gap.
func (rt *Router) gossip(req *proto.Request) *proto.Response {
	rt.gossips.Add(1)
	type ack struct {
		resp *proto.Response
		err  error
	}
	acks := make([]ack, len(rt.replicas))
	var wg sync.WaitGroup
	for i, r := range rt.replicas {
		wg.Add(1)
		go func(i int, r *replicaState) {
			defer wg.Done()
			resp, err := rt.exchange(r, req)
			acks[i] = ack{resp, err}
		}(i, r)
	}
	wg.Wait()
	oks := 0
	var firstOK, firstBad *proto.Response
	for _, a := range acks {
		switch {
		case a.err != nil:
			// transport failure: counted by exchange, nothing to render
		case a.resp.OK:
			oks++
			if firstOK == nil {
				firstOK = a.resp
			}
		case firstBad == nil:
			firstBad = a.resp
		}
	}
	if oks == 0 {
		if firstBad != nil {
			return firstBad
		}
		return &proto.Response{Error: fmt.Sprintf("router: %s reached no replica", req.Op)}
	}
	rt.warmStatements(rt.hot.snapshot(rt.cfg.WarmLimit), nil)
	return &proto.Response{
		OK:      true,
		Text:    fmt.Sprintf("%s (gossiped to %d/%d replicas)", firstOK.Text, oks, len(rt.replicas)),
		Replica: "gossip",
	}
}

// warmStatements re-warms hot statements. With only == nil each goes to
// the first live replica in its rendezvous order (the replica whose
// caches clients will hit); with a specific replica — one whose epoch
// changed under a restart — everything warms there. Warming is
// synchronous and admission-controlled at the replica, so a storm
// cannot starve queries.
func (rt *Router) warmStatements(sqls []string, only *replicaState) {
	for _, sql := range sqls {
		req := &proto.Request{Op: "warm", SQL: sql}
		r := only
		if r == nil {
			for _, idx := range rt.ring.Order(mediator.NormalizeSQL(sql)) {
				if !rt.replicas[idx].isDown() {
					r = rt.replicas[idx]
					break
				}
			}
			if r == nil {
				return // every replica is down
			}
		}
		if resp, err := rt.exchange(r, req); err == nil && resp.OK {
			rt.warms.Add(1)
		}
	}
}

// PollNow polls every replica's stats endpoint once, synchronously:
// liveness, self-reported load and shed counters, catalog epoch. A
// replica whose epoch changed (a restart) gets its caches re-warmed
// with the hot set. The background loop calls this on PollInterval;
// tests call it directly.
func (rt *Router) PollNow() {
	var wg sync.WaitGroup
	for _, r := range rt.replicas {
		wg.Add(1)
		go func(r *replicaState) {
			defer wg.Done()
			resp, err := rt.exchange(r, &proto.Request{Op: "stats"})
			if err != nil || !resp.OK {
				return
			}
			var st serving.Stats
			if json.Unmarshal([]byte(resp.Text), &st) != nil {
				return
			}
			r.mu.Lock()
			epochChanged := r.lastEpoch != 0 && st.Epoch != r.lastEpoch
			r.lastEpoch = st.Epoch
			r.repInFlight = int64(st.Mediator.InFlight)
			r.repShed = st.Mediator.Shed
			r.mu.Unlock()
			if epochChanged {
				rt.warmStatements(rt.hot.snapshot(rt.cfg.WarmLimit), r)
			}
		}(r)
	}
	wg.Wait()
}

// hotTracker is a small LRU of recently routed statements (normalized
// key → raw SQL): the working set the router re-warms after gossip and
// replica restarts.
type hotTracker struct {
	mu    sync.Mutex
	cap   int
	order list.List // of *hotEntry, front = most recent
	byKey map[string]*list.Element
}

type hotEntry struct {
	key string
	sql string
}

func (h *hotTracker) note(key, sql string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.byKey == nil {
		h.byKey = make(map[string]*list.Element, h.cap)
	}
	if el, ok := h.byKey[key]; ok {
		h.order.MoveToFront(el)
		return
	}
	h.byKey[key] = h.order.PushFront(&hotEntry{key: key, sql: sql})
	for h.order.Len() > h.cap {
		last := h.order.Back()
		delete(h.byKey, last.Value.(*hotEntry).key)
		h.order.Remove(last)
	}
}

// snapshot returns up to limit raw statements, most recent first.
func (h *hotTracker) snapshot(limit int) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, limit)
	for el := h.order.Front(); el != nil && len(out) < limit; el = el.Next() {
		out = append(out, el.Value.(*hotEntry).sql)
	}
	return out
}

func (h *hotTracker) len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.order.Len()
}

// ReplicaStats is the observable per-replica slice of Stats: the cost
// model's inputs, inspectable via discoctl \stats.
type ReplicaStats struct {
	Addr            string  `json:"addr"`
	Capacity        float64 `json:"capacity"`
	EwmaMS          float64 `json:"ewma_ms"`
	Down            bool    `json:"down"`
	Routed          int64   `json:"routed"`
	Scattered       int64   `json:"scattered"`
	Failures        int64   `json:"failures"`
	InFlight        int64   `json:"inflight"`
	ReplicaInFlight int64   `json:"replica_inflight"`
	ReplicaShed     int64   `json:"replica_shed"`
	Epoch           uint64  `json:"epoch"`
}

// Stats is the router-level snapshot the stats op returns.
type Stats struct {
	Routed      int64          `json:"routed"`
	Scattered   int64          `json:"scattered"`
	Failovers   int64          `json:"failovers"`
	ShedRetries int64          `json:"shed_retries"`
	Gossips     int64          `json:"gossips"`
	Warms       int64          `json:"warms"`
	Partials    int64          `json:"partials"`
	HotTracked  int            `json:"hot_tracked"`
	Replicas    []ReplicaStats `json:"replicas"`
}

// Stats snapshots the router counters and every replica's cost-model
// state.
func (rt *Router) Stats() Stats {
	s := Stats{
		Routed:      rt.routedTotal.Load(),
		Scattered:   rt.scatteredTotal.Load(),
		Failovers:   rt.failovers.Load(),
		ShedRetries: rt.shedRetries.Load(),
		Gossips:     rt.gossips.Load(),
		Warms:       rt.warms.Load(),
		Partials:    rt.partials.Load(),
		HotTracked:  rt.hot.len(),
	}
	for _, r := range rt.replicas {
		r.mu.Lock()
		rs := ReplicaStats{
			Addr:            r.addr,
			Capacity:        r.capacity,
			EwmaMS:          r.ewmaMS,
			Down:            r.down,
			ReplicaInFlight: r.repInFlight,
			ReplicaShed:     r.repShed,
			Epoch:           r.lastEpoch,
		}
		r.mu.Unlock()
		rs.Routed = r.routed.Load()
		rs.Scattered = r.scattered.Load()
		rs.Failures = r.failures.Load()
		rs.InFlight = r.inflight.Load()
		s.Replicas = append(s.Replicas, rs)
	}
	return s
}

// tryScatter parses a query and, when it is an eligible partitioned
// scan over ≥2 live replicas, runs it scatter-gather. A nil return
// means "route normally" (ineligible, unparseable — the replica will
// render the real error — or too few replicas).
func (rt *Router) tryScatter(req *proto.Request) *proto.Response {
	if len(rt.cfg.Partitions) == 0 {
		return nil
	}
	q, err := sqlparser.Parse(req.SQL)
	if err != nil {
		return nil
	}
	part, ok := scatterEligible(q, rt.cfg.Partitions)
	if !ok {
		return nil
	}
	healthy := rt.healthyIndices()
	if len(healthy) < 2 {
		return nil
	}
	return rt.scatter(q, part, healthy)
}

func (rt *Router) healthyIndices() []int {
	var out []int
	for i, r := range rt.replicas {
		if !r.isDown() {
			out = append(out, i)
		}
	}
	return out
}
