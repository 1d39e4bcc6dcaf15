package loadgen

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"disco/internal/proto"
	"disco/internal/types"
)

// DriveOptions configure one run of a schedule against live servers.
type DriveOptions struct {
	// Addrs are the discod addresses; client c dials Addrs[c % len].
	Addrs []string
	// RequestTimeout bounds each request round-trip (dial, write, read).
	// A request that exceeds it marks the client wedged — the condition
	// the soak gate asserts never happens. Zero uses DefaultTimeout.
	RequestTimeout time.Duration
	// DialTimeout bounds the initial connect; zero uses RequestTimeout.
	DialTimeout time.Duration
}

// DefaultTimeout is the per-request wedge bound.
const DefaultTimeout = 30 * time.Second

// Sample is one oracle-verification record: the statement, and a
// position-independent digest of the rows it returned.
type Sample struct {
	Client  int    `json:"client"`
	Request int    `json:"request"`
	SQL     string `json:"sql"`
	Rows    int    `json:"rows"`
	Hash    uint64 `json:"hash"`
	Partial bool   `json:"partial"`
}

// Report aggregates one driven run.
type Report struct {
	// Workload identity.
	Seed     int64 `json:"seed"`
	Clients  int   `json:"clients"`
	Requests int   `json:"requests"` // requests attempted
	// Outcome counters.
	OK        int `json:"ok"`
	Shed      int `json:"shed"`   // admission-control rejections (overloaded)
	Errors    int `json:"errors"` // non-overloaded error responses
	Partials  int `json:"partials"`
	Wedged    int `json:"wedged"` // clients that hit the request timeout or an I/O failure
	RowsTotal int `json:"rows_total"`
	// Latency percentiles over successful requests, wall-clock ms.
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
	// Throughput over the whole run.
	ElapsedS float64 `json:"elapsed_s"`
	QPS      float64 `json:"qps"`
	// Rates derived from the counters.
	ShedRate    float64 `json:"shed_rate"`
	PartialRate float64 `json:"partial_rate"`
	// WedgedClients carries one error string per wedged client.
	WedgedClients []string `json:"wedged_clients,omitempty"`
	// PerTarget breaks the run down by the target that served each
	// request: the server's self-attribution (Response.Replica — a
	// replica address, "gossip", or "scatter:<n>" behind a federation
	// router) when present, else the dialed address. Sorted by target.
	PerTarget []TargetStats `json:"per_target,omitempty"`
	// Samples are the oracle-verification records of sampled queries.
	Samples []Sample `json:"samples,omitempty"`
	// ServerStats is the raw JSON the server's stats op returned after
	// the run (absent when scraping failed or was disabled). Attach it
	// with AttachServerStats so the derived fields below are filled.
	ServerStats json.RawMessage `json:"server_stats,omitempty"`
	// ResultCacheHits/Misses and ResultCacheHitRate are lifted out of
	// ServerStats (zero when the server runs without a result cache).
	ResultCacheHits    int64   `json:"result_cache_hits"`
	ResultCacheMisses  int64   `json:"result_cache_misses"`
	ResultCacheHitRate float64 `json:"result_cache_hit_rate"`

	// Hist is the merged latency histogram (not serialized).
	Hist Histogram `json:"-"`
}

// AttachServerStats records the scraped stats payload and derives the
// headline result-cache fields from it. A payload that does not parse —
// or predates the result cache — leaves the derived fields zero; the raw
// JSON is kept either way.
func (r *Report) AttachServerStats(raw json.RawMessage) {
	r.ServerStats = raw
	var parsed struct {
		Mediator struct {
			ResultCacheHits   int64
			ResultCacheMisses int64
		} `json:"mediator"`
	}
	if json.Unmarshal(raw, &parsed) != nil {
		return
	}
	r.ResultCacheHits = parsed.Mediator.ResultCacheHits
	r.ResultCacheMisses = parsed.Mediator.ResultCacheMisses
	if total := r.ResultCacheHits + r.ResultCacheMisses; total > 0 {
		r.ResultCacheHitRate = float64(r.ResultCacheHits) / float64(total)
	}
}

// TargetStats is one target's slice of a driven run. Against a single
// discod the only target is the dialed address; against a federation
// router the breakdown shows how the router spread the work across
// replicas (plus the synthetic "scatter:<n>" and "gossip" targets).
type TargetStats struct {
	Target    string  `json:"target"`
	OK        int     `json:"ok"`
	Shed      int     `json:"shed"`
	Errors    int     `json:"errors"`
	Partials  int     `json:"partials"`
	RowsTotal int     `json:"rows_total"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	MeanMS    float64 `json:"mean_ms"`
	// Shard attribution: when this target served shards of scatter-gather
	// answers (Response.ShardDetail), the shard counts, rows, and mean
	// shard latency land here. The scattered request itself still counts
	// under the synthetic "scatter:<n>" rollup row; these fields show
	// which replicas actually did the scan work behind it. ShardMeanMS is
	// on the server's clock (Response.ElapsedMS), not the client's.
	ShardsServed int     `json:"shards_served,omitempty"`
	ShardRows    int     `json:"shard_rows,omitempty"`
	ShardMeanMS  float64 `json:"shard_mean_ms,omitempty"`

	hist       Histogram
	shardMSSum float64
}

// clientResult is one client goroutine's contribution.
type clientResult struct {
	hist     Histogram
	ok       int
	shed     int
	errors   int
	partials int
	rows     int
	samples  []Sample
	wedged   error
	targets  map[string]*TargetStats
}

// target returns the accumulator for one attribution key.
func (cr *clientResult) target(name string) *TargetStats {
	if cr.targets == nil {
		cr.targets = make(map[string]*TargetStats)
	}
	ts, ok := cr.targets[name]
	if !ok {
		ts = &TargetStats{Target: name}
		cr.targets[name] = ts
	}
	return ts
}

// Drive runs the schedule: one goroutine per client, each over its own
// real TCP connection, sending its requests in order and recording
// wall-clock latency per request. Admission shedding (overloaded
// responses) is counted, not retried — the shed rate is a headline
// metric. Returns after every client finished or wedged.
func Drive(s *Schedule, opts DriveOptions) (*Report, error) {
	if len(opts.Addrs) == 0 {
		return nil, fmt.Errorf("loadgen: no server addresses")
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultTimeout
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = opts.RequestTimeout
	}

	results := make([]clientResult, len(s.Clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range s.Clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			driveClient(s.Clients[c], c, opts.Addrs[c%len(opts.Addrs)], opts, &results[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{Seed: s.Cfg.Seed, Clients: len(s.Clients)}
	merged := make(map[string]*TargetStats)
	for c := range results {
		r := &results[c]
		rep.Hist.Merge(&r.hist)
		rep.OK += r.ok
		rep.Shed += r.shed
		rep.Errors += r.errors
		rep.Partials += r.partials
		rep.RowsTotal += r.rows
		rep.Samples = append(rep.Samples, r.samples...)
		if r.wedged != nil {
			rep.Wedged++
			rep.WedgedClients = append(rep.WedgedClients, fmt.Sprintf("client %d: %v", c, r.wedged))
		}
		for name, ts := range r.targets {
			m, ok := merged[name]
			if !ok {
				m = &TargetStats{Target: name}
				merged[name] = m
			}
			m.OK += ts.OK
			m.Shed += ts.Shed
			m.Errors += ts.Errors
			m.Partials += ts.Partials
			m.RowsTotal += ts.RowsTotal
			m.ShardsServed += ts.ShardsServed
			m.ShardRows += ts.ShardRows
			m.shardMSSum += ts.shardMSSum
			m.hist.Merge(&ts.hist)
		}
	}
	for _, m := range merged {
		m.P50MS = m.hist.QuantileMS(0.50)
		m.P99MS = m.hist.QuantileMS(0.99)
		m.MeanMS = m.hist.MeanMicros() / 1000
		if m.ShardsServed > 0 {
			m.ShardMeanMS = m.shardMSSum / float64(m.ShardsServed)
		}
		rep.PerTarget = append(rep.PerTarget, *m)
	}
	sort.Slice(rep.PerTarget, func(a, b int) bool { return rep.PerTarget[a].Target < rep.PerTarget[b].Target })
	rep.Requests = rep.OK + rep.Shed + rep.Errors
	rep.P50MS = rep.Hist.QuantileMS(0.50)
	rep.P90MS = rep.Hist.QuantileMS(0.90)
	rep.P99MS = rep.Hist.QuantileMS(0.99)
	rep.P999MS = rep.Hist.QuantileMS(0.999)
	rep.MaxMS = float64(rep.Hist.MaxMicros()) / 1000
	rep.MeanMS = rep.Hist.MeanMicros() / 1000
	rep.ElapsedS = elapsed.Seconds()
	if rep.ElapsedS > 0 {
		rep.QPS = float64(rep.OK) / rep.ElapsedS
	}
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
		rep.PartialRate = float64(rep.Partials) / float64(rep.Requests)
	}
	return rep, nil
}

// driveClient plays one client's request sequence over one connection.
// A request timeout or I/O failure wedges the client: the rest of its
// schedule is abandoned and the error recorded. An error *response* is
// not a wedge — the connection is fine, the statement failed.
func driveClient(reqs []Request, idx int, addr string, opts DriveOptions, out *clientResult) {
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		out.wedged = fmt.Errorf("dial %s: %w", addr, err)
		return
	}
	defer conn.Close()
	r := proto.NewReader(conn)

	for i, req := range reqs {
		wire := &proto.Request{Op: req.Op, SQL: req.SQL, Arg: req.Arg}
		deadline := time.Now().Add(opts.RequestTimeout)
		_ = conn.SetDeadline(deadline)
		t0 := time.Now()
		if err := proto.Write(conn, wire); err != nil {
			out.wedged = fmt.Errorf("request %d (%s): write: %w", i, req.Op, err)
			return
		}
		resp, err := r.ReadResponse()
		if err != nil {
			out.wedged = fmt.Errorf("request %d (%s): read: %w", i, req.Op, err)
			return
		}
		lat := time.Since(t0)
		target := resp.Replica
		if target == "" {
			target = addr
		}
		ts := out.target(target)
		switch {
		case resp.Overloaded:
			out.shed++
			ts.Shed++
			continue // shed before execution: not a latency observation
		case !resp.OK:
			out.errors++
			ts.Errors++
			continue
		}
		out.ok++
		out.hist.RecordMicros(lat.Microseconds())
		out.rows += len(resp.Rows)
		ts.OK++
		ts.hist.RecordMicros(lat.Microseconds())
		ts.RowsTotal += len(resp.Rows)
		if resp.Partial {
			out.partials++
			ts.Partials++
		}
		// Credit scatter-gather shard work to the replicas that served
		// it; the request stays attributed to the rollup target above.
		for _, sd := range resp.ShardDetail {
			if sd.Replica == "" {
				continue
			}
			sts := out.target(sd.Replica)
			sts.ShardsServed++
			sts.ShardRows += sd.Rows
			sts.shardMSSum += sd.ElapsedMS
		}
		if req.Sample && req.Op == OpQuery {
			out.samples = append(out.samples, Sample{
				Client:  idx,
				Request: i,
				SQL:     req.SQL,
				Rows:    len(resp.Rows),
				Hash:    HashRows(resp.Rows),
				Partial: resp.Partial,
			})
		}
	}
}

// ScrapeStats asks one server for its stats op and returns the raw JSON
// payload.
func ScrapeStats(addr string, timeout time.Duration) (json.RawMessage, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if err := proto.Write(conn, &proto.Request{Op: "stats"}); err != nil {
		return nil, err
	}
	resp, err := proto.NewReader(conn).ReadResponse()
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("stats op: %s", resp.Error)
	}
	return json.RawMessage(resp.Text), nil
}

// HashRows digests a result set independent of row order: each row is
// hashed on its canonicalized values, and the row hashes are combined
// with commutative sum and xor lanes plus the count. Two executions of
// the same statement — possibly under different plans, which may emit
// rows in different orders — produce equal digests iff they returned the
// same multiset of rows (up to hash collisions). Rows may be boxed Go
// values or typed constants; a constant hashes as its boxed value does.
func HashRows[R []any | types.Row](rows []R) uint64 {
	var sum, xor uint64
	buf := make([]byte, 0, 64)
	for _, row := range rows {
		rh := uint64(offset64)
		switch row := any(row).(type) {
		case []any:
			for _, v := range row {
				buf = append(canonValue(buf[:0], v), 0)
				rh = fnv1a(rh, buf)
			}
		case types.Row:
			for _, c := range row {
				buf = append(canonConstant(buf[:0], c), 0)
				rh = fnv1a(rh, buf)
			}
		}
		sum += rh
		xor ^= rh
	}
	return sum ^ (xor * 0x9e3779b97f4a7c15) ^ uint64(len(rows))
}

const offset64, prime64 = 14695981039346656037, 1099511628211 // FNV-1a

func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// canonValue renders one result value canonically: a float that holds
// an integer and the equal int render identically, because the oracle
// side and the wire side of a comparison may differ in Go type.
func canonValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, "∅"...)
	case bool:
		return canonBool(buf, x)
	case string:
		return append(append(buf, 's'), x...)
	case int64:
		return strconv.AppendInt(append(buf, 'i'), x, 10)
	case int:
		return strconv.AppendInt(append(buf, 'i'), int64(x), 10)
	case float64:
		return canonFloat(buf, x)
	default:
		return fmt.Appendf(buf, "v%v", v)
	}
}

// canonConstant renders a constant as canonValue renders its boxed value.
func canonConstant(buf []byte, c types.Constant) []byte {
	switch c.Kind() {
	case types.KindBool:
		return canonBool(buf, c.AsBool())
	case types.KindString:
		return append(append(buf, 's'), c.AsString()...)
	case types.KindInt:
		return strconv.AppendInt(append(buf, 'i'), c.AsInt(), 10)
	case types.KindFloat:
		return canonFloat(buf, c.AsFloat())
	default:
		return append(buf, "∅"...)
	}
}

func canonBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 't')
	}
	return append(buf, 'f')
}

func canonFloat(buf []byte, x float64) []byte {
	if x == float64(int64(x)) {
		return strconv.AppendInt(append(buf, 'i'), int64(x), 10)
	}
	return strconv.AppendFloat(append(buf, 'g'), x, 'g', -1, 64)
}
