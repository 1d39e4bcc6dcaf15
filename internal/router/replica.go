package router

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/proto"
)

// ewmaAlpha is the smoothing factor of the per-replica latency estimate:
// each observation moves the estimate 20% of the way — reactive enough
// to track a replica that degrades mid-run, smooth enough not to chase
// single outliers. It mirrors the blending discipline of the mediator's
// feedback loop: measured actuals folded into a prior, never replacing
// it wholesale.
const ewmaAlpha = 0.2

// consecFailsDown is how many consecutive transport failures mark a
// replica down. Dispatch skips a down replica in every key's order
// until a probe or stats poll reaches it again.
const consecFailsDown = 2

// poolSize bounds the pooled connections per replica.
const poolSize = 4

// replicaConn pairs a pooled connection with its protocol reader: the
// reader buffers, so it must survive with the connection it read from.
type replicaConn struct {
	c net.Conn
	r *proto.Reader
}

// replicaState is the router's view of one discod replica: transport
// (a small connection pool), liveness, and the cost-model inputs — the
// EWMA of measured wall latency and the replica's self-reported
// in-flight and shed counters from its stats endpoint.
type replicaState struct {
	addr     string
	capacity float64 // static relative capacity (ReplicaConfig.Capacity)

	pool chan *replicaConn

	// Router-side counters (atomics: the hot dispatch path).
	inflight  atomic.Int64 // requests this router currently has on the wire
	routed    atomic.Int64 // requests dispatched (including failures)
	failures  atomic.Int64 // transport-level failures observed
	shedSeen  atomic.Int64 // Overloaded responses observed
	scattered atomic.Int64 // shard sub-requests dispatched

	mu          sync.Mutex
	down        bool
	consecFails int
	ewmaMS      float64 // measured request latency estimate (0 = no data)
	obs         int64   // observations folded into ewmaMS
	lastEpoch   uint64  // catalog epoch last seen in a stats poll
	repInFlight int64   // replica-reported admitted queries
	repShed     int64   // replica-reported shed total
}

func newReplicaState(addr string, capacity float64) *replicaState {
	if capacity <= 0 {
		capacity = 1
	}
	return &replicaState{addr: addr, capacity: capacity, pool: make(chan *replicaConn, poolSize)}
}

// send performs one request/response exchange, pooling the connection on
// success and closing it on any transport error (the reader may be
// desynced). The caller decides what an Overloaded response means; here
// it is a successful exchange.
func (r *replicaState) send(req *proto.Request, dialTimeout, reqTimeout time.Duration) (*proto.Response, error) {
	rc, err := r.getConn(dialTimeout)
	if err != nil {
		return nil, err
	}
	if reqTimeout > 0 {
		_ = rc.c.SetDeadline(time.Now().Add(reqTimeout))
	}
	if err := proto.Write(rc.c, req); err != nil {
		rc.c.Close()
		return nil, err
	}
	resp, err := rc.r.ReadResponse()
	if err != nil {
		rc.c.Close()
		return nil, err
	}
	select {
	case r.pool <- rc:
	default:
		rc.c.Close()
	}
	return resp, nil
}

func (r *replicaState) getConn(dialTimeout time.Duration) (*replicaConn, error) {
	select {
	case rc := <-r.pool:
		return rc, nil
	default:
	}
	c, err := net.DialTimeout("tcp", r.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &replicaConn{c: c, r: proto.NewReader(c)}, nil
}

// drainPool closes every pooled connection (shutdown, or a down mark —
// pooled connections to a dead replica would each cost a failed request
// to discover).
func (r *replicaState) drainPool() {
	for {
		select {
		case rc := <-r.pool:
			rc.c.Close()
		default:
			return
		}
	}
}

// observe folds one measured request latency into the EWMA.
func (r *replicaState) observe(ms float64) {
	r.mu.Lock()
	if r.obs == 0 {
		r.ewmaMS = ms
	} else {
		r.ewmaMS += ewmaAlpha * (ms - r.ewmaMS)
	}
	r.obs++
	r.mu.Unlock()
}

// markSuccess resets the consecutive-failure streak and revives a down
// replica (any successful exchange proves liveness).
func (r *replicaState) markSuccess() {
	r.mu.Lock()
	r.consecFails = 0
	r.down = false
	r.mu.Unlock()
}

// markFailure counts one transport failure; the streak crossing
// consecFailsDown marks the replica down. Reports whether the replica is
// down after the mark.
func (r *replicaState) markFailure() bool {
	r.failures.Add(1)
	r.mu.Lock()
	r.consecFails++
	wasUp := !r.down
	if r.consecFails >= consecFailsDown {
		r.down = true
	}
	down := r.down
	r.mu.Unlock()
	if down && wasUp {
		r.drainPool()
	}
	return down
}

func (r *replicaState) isDown() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.down
}

// cost prices dispatching one more request to this replica right now:
// the queue it would join (router-side in-flight plus the replica's
// self-reported admitted queries, plus this request) times the expected
// per-request latency, discounted by static capacity. It is the
// router-tier analogue of the mediator's cost formulas — load times
// latency over capacity — and drives the affinity-overload escape hatch
// in pick(). fallbackMS prices a replica with no latency observations
// yet; callers pass the fleet's mean measured latency so an unmeasured
// replica is priced as typical rather than implausibly fast (which
// would bounce affinity away from every replica that has ever been
// measured).
func (r *replicaState) cost(fallbackMS float64) float64 {
	r.mu.Lock()
	ewma := r.ewmaMS
	rep := r.repInFlight
	r.mu.Unlock()
	if ewma <= 0 {
		ewma = fallbackMS
	}
	if ewma <= 0 {
		ewma = 1 // nothing measured anywhere: load alone decides
	}
	queue := float64(r.inflight.Load()+rep) + 1
	return queue * ewma / r.capacity
}

// meanEwmaMS is the mean measured latency across replicas with data
// (0 = nothing measured), the cost fallback for unmeasured replicas.
func meanEwmaMS(replicas []*replicaState) float64 {
	var sum float64
	var n int
	for _, r := range replicas {
		r.mu.Lock()
		if r.obs > 0 && r.ewmaMS > 0 {
			sum += r.ewmaMS
			n++
		}
		r.mu.Unlock()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
