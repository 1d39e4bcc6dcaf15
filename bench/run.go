package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"disco/internal/loadgen"
	"disco/internal/mediator"
	"disco/internal/proto"
	"disco/internal/serving"
)

const (
	// requestTimeout is the per-request wedge bound; a request past it
	// counts as failed and ends its client.
	requestTimeout = 30 * time.Second
	// digestEvery: the timed run checks the row count of every response
	// and the digest of every digestEvery-th; hashing a 14k-row answer
	// on every response would measure the generator.
	digestEvery = 16
)

// oracleEntry is what the sequential oracle pass recorded for one
// statement.
type oracleEntry struct {
	rows      int
	hash      uint64
	elapsedMS float64 // Result.ElapsedMS, virtual
	estMS     float64 // root TotalTime of Prepared.Cost, virtual
}

// statementSQL completes a request's SQL text: tagged workloads append
// the run-unique serial to the open tag predicate.
func statementSQL(w *workload, sql string, serial int) string {
	if w.tagged {
		return sql + strconv.Itoa(tagBase+serial)
	}
	return sql
}

// oraclePass executes every distinct query statement of the schedule
// once, sequentially, on a federation with plan cache, result cache and
// feedback off. One query in flight is what makes Result.ElapsedMS exact:
// concurrent queries share the federation's virtual clock. Statements
// run in sorted order, so the one that finds the object store's buffer
// cold is the same under every seed.
func oraclePass(w *workload, sched *loadgen.Schedule) (map[string]*oracleEntry, error) {
	fed, err := w.federation(oracle)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*oracleEntry)
	var stmts []string
	for _, reqs := range sched.Clients {
		for i := range reqs {
			if r := &reqs[i]; r.Op == loadgen.OpQuery && out[r.SQL] == nil {
				out[r.SQL] = &oracleEntry{}
				stmts = append(stmts, r.SQL)
			}
		}
	}
	sort.Strings(stmts)
	for _, sql := range stmts {
		p, err := fed.Med.Prepare(statementSQL(w, sql, 0))
		if err != nil {
			return nil, fmt.Errorf("oracle: prepare %q: %w", sql, err)
		}
		res, err := fed.Med.ExecutePlan(p)
		if err != nil {
			return nil, fmt.Errorf("oracle: execute %q: %w", sql, err)
		}
		if res.Partial {
			return nil, fmt.Errorf("oracle: partial answer for %q", sql)
		}
		rows := make([][]any, len(res.Rows))
		for j, row := range res.Rows {
			rows[j] = proto.EncodeRow(row)
		}
		*out[sql] = oracleEntry{
			rows:      len(rows),
			hash:      loadgen.HashRows(rows),
			elapsedMS: res.ElapsedMS,
			estMS:     p.Cost.TotalTime(),
		}
	}
	return out, nil
}

// virtualMetrics folds the oracle pass into the two virtual-clock
// metrics: the simulated response time of the schedule's average query
// request, and the median over its distinct statements of the cost
// model's q-error, max(est/act, act/est).
func virtualMetrics(sched *loadgen.Schedule, oracle map[string]*oracleEntry) (virtualMS, qerrorP50 float64) {
	var sum float64
	n := 0
	for _, reqs := range sched.Clients {
		for i := range reqs {
			if reqs[i].Op == loadgen.OpQuery {
				sum += oracle[reqs[i].SQL].elapsedMS
				n++
			}
		}
	}
	qerrs := make([]float64, 0, len(oracle))
	for _, e := range oracle {
		qerrs = append(qerrs, max(e.estMS/e.elapsedMS, e.elapsedMS/e.estMS))
	}
	return sum / float64(n), medianFloat(qerrs)
}

// failures counts what went wrong, by kind. Every kind counts against
// the requests attempted: no fault is injected, so a partial answer is
// as wrong as an error.
type failures struct {
	Errors   int `json:"errors"`
	Shed     int `json:"shed"`
	Wedged   int `json:"wedged"`
	Partials int `json:"partials"`
	RowCount int `json:"row_count_mismatches"`
	Digest   int `json:"digest_mismatches"`
}

func (f failures) total() int {
	return f.Errors + f.Shed + f.Wedged + f.Partials + f.RowCount + f.Digest
}

func (f *failures) add(o failures) {
	f.Errors += o.Errors
	f.Shed += o.Shed
	f.Wedged += o.Wedged
	f.Partials += o.Partials
	f.RowCount += o.RowCount
	f.Digest += o.Digest
}

// client is one closed-loop connection: it sends a request only after
// the previous reply arrived, like discoctl, discoload and the router's
// pooled replica connections.
type client struct {
	w      *workload
	idx    int
	reqs   []loadgen.Request
	oracle map[string]*oracleEntry
	conn   net.Conn
	rd     *proto.Reader
	// sent numbers this client's requests across warm-up and timed run;
	// it makes the tag serial unique.
	sent  int
	fails failures
	wedge error
	// mismatches describes the first few wrong answers.
	mismatches []string
	samples    []sample
}

func dialClient(w *workload, idx int, reqs []loadgen.Request, oracle map[string]*oracleEntry, addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	return &client{w: w, idx: idx, reqs: reqs, oracle: oracle, conn: conn, rd: proto.NewReader(conn)}, nil
}

// do plays one request and verifies the reply. It returns the client
// observed latency, the rows delivered, and whether the reply was a
// correct OK answer. checkDigest forces the digest comparison.
func (c *client) do(req *loadgen.Request, checkDigest bool) (lat time.Duration, rows int, ok bool) {
	serial := c.sent*numClients + c.idx
	c.sent++
	wire := &proto.Request{Op: req.Op, Arg: req.Arg}
	if req.SQL != "" {
		wire.SQL = statementSQL(c.w, req.SQL, serial)
	}
	_ = c.conn.SetDeadline(time.Now().Add(requestTimeout))
	t0 := time.Now()
	err := proto.Write(c.conn, wire)
	var resp *proto.Response
	if err == nil {
		resp, err = c.rd.ReadResponse()
	}
	lat = time.Since(t0)
	switch {
	case err != nil:
		c.wedge = fmt.Errorf("client %d request %d (%s): %w", c.idx, c.sent-1, req.Op, err)
		c.fails.Wedged++
		return lat, 0, false
	case resp.Overloaded:
		c.fails.Shed++
		return lat, 0, false
	case !resp.OK:
		c.fails.Errors++
		return lat, 0, false
	}
	rows = len(resp.Rows)
	if req.Op != loadgen.OpQuery {
		return lat, rows, true
	}
	want := c.oracle[req.SQL]
	switch {
	case resp.Partial:
		c.fails.Partials++
	case rows != want.rows:
		c.fails.RowCount++
	case (checkDigest || c.sent%digestEvery == 0) && loadgen.HashRows(resp.Rows) != want.hash:
		c.fails.Digest++
	default:
		return lat, rows, true
	}
	if len(c.mismatches) < 3 {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%q: %d rows (partial=%t), oracle has %d", wire.SQL, rows, resp.Partial, want.rows))
	}
	return lat, rows, false
}

// warmUp plays the first occurrence of every query statement in the
// client's cycle and checks every digest: plans are cached, the heap is
// grown, and each statement is known to answer correctly before the
// clock starts.
func (c *client) warmUp() {
	seen := make(map[string]bool)
	for i := range c.reqs {
		r := &c.reqs[i]
		if r.Op != loadgen.OpQuery || seen[r.SQL] {
			continue
		}
		seen[r.SQL] = true
		if c.do(r, true); c.wedge != nil {
			return
		}
	}
}

// sample is one timed request.
type sample struct {
	latNS int64
	// endNS is when the reply had been read, from the start of the loop.
	endNS int64
	rows  int32
	tmpl  int16 // query template, -1 for other ops
	ok    bool
}

// timedLoop cycles through the client's requests until the deadline.
func (c *client) timedLoop(start time.Time, d time.Duration) {
	for i := 0; c.wedge == nil; i++ {
		r := &c.reqs[i%len(c.reqs)]
		lat, rows, ok := c.do(r, false)
		tmpl := int16(-1)
		if r.Op == loadgen.OpQuery {
			tmpl = int16(r.Template)
		}
		end := time.Since(start)
		c.samples = append(c.samples, sample{latNS: int64(lat), endNS: int64(end), rows: int32(rows), tmpl: tmpl, ok: ok})
		if end >= d {
			return
		}
	}
}

// rig is one set-up workload: schedule, oracle answers, a serving
// federation on a loopback socket, and warmed-up clients.
type rig struct {
	sched   *loadgen.Schedule
	oracle  map[string]*oracleEntry
	fed     *serving.Federation
	srv     *serving.Server
	clients []*client
}

// setUp does everything that precedes the first timed request.
func setUp(w *workload, seed int64) (*rig, error) {
	sched, err := w.schedule(seed)
	if err != nil {
		return nil, err
	}
	answers, err := oraclePass(w, sched)
	if err != nil {
		return nil, err
	}
	fed, err := w.federation(deployed)
	if err != nil {
		return nil, err
	}
	r := &rig{sched: sched, oracle: answers, fed: fed}
	addr, err := r.serve()
	if err != nil {
		return nil, err
	}
	for c, reqs := range sched.Clients {
		cl, err := dialClient(w, c, reqs, answers, addr)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	r.eachClient((*client).warmUp)
	return r, nil
}

// serve starts the discoload -demo arrangement: an in-process
// serving.Server on an ephemeral loopback port.
func (r *rig) serve() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	r.srv = serving.NewServer(r.fed, 5*time.Minute)
	go r.srv.Serve(ln)
	return ln.Addr().String(), nil
}

func (r *rig) eachClient(f func(*client)) {
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// close hangs up the clients and waits for the server's goroutines.
func (r *rig) close() {
	for _, c := range r.clients {
		c.conn.Close()
	}
	if r.srv != nil {
		_ = r.srv.Shutdown(5 * time.Second)
	}
}

// timedRun is what the closed loop measured.
type timedRun struct {
	samples [][]sample
	// elapsed is the wall time from the first request sent to the last
	// reply read.
	elapsed time.Duration
	// attempted and fails include the warm-up pass: its answers were
	// checked too.
	attempted int
	fails     failures
	// problems describes wedged clients and the first wrong answers.
	problems []string
	// Server- and process-side state before and after the loop.
	before, after mediator.Stats
	mem0, mem1    runtime.MemStats
}

// run plays the timed closed loop on a set-up rig, tracing off.
func (r *rig) run(d time.Duration) *timedRun {
	t := &timedRun{}
	for _, c := range r.clients {
		c.samples = make([]sample, 0, 1<<16)
	}
	runtime.GC()
	t.before = r.fed.Med.Stats()
	runtime.ReadMemStats(&t.mem0)
	start := time.Now()
	r.eachClient(func(c *client) { c.timedLoop(start, d) })
	t.elapsed = time.Since(start)
	runtime.ReadMemStats(&t.mem1)
	t.after = r.fed.Med.Stats()
	for _, c := range r.clients {
		t.samples = append(t.samples, c.samples)
		t.attempted += c.sent
		t.fails.add(c.fails)
		if c.wedge != nil {
			t.problems = append(t.problems, c.wedge.Error())
		}
		t.problems = append(t.problems, c.mismatches...)
	}
	return t
}
