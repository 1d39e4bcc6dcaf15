package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"disco/internal/algebra"
	"disco/internal/loadgen"
	"disco/internal/mediator"
	"disco/internal/optimizer"
	"disco/internal/proto"
	"disco/internal/serving"
	"disco/internal/sqlparser"
	"disco/internal/types"
	"disco/internal/vexec"
	"disco/internal/wrapper"
)

// The traced run times every layer from outside the program. Where a
// layer sits behind an exported interface (the client connection,
// serving.Handler, wrapper.Wrapper) a decorator records a real, nested
// span while a real request runs. Where it is a concrete type
// (sqlparser, optimizer, core, engine, vexec, proto, mediator) the step
// is replayed for the same statement by calling the exported function,
// and the span is marked as a replay. Spans inside the program are
// ROADMAP item 2; this decomposition is what that work is checked
// against.

// span is one timed interval. Spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. One request is in
// flight at a time, so the open spans form a stack; the mutex only
// orders the client and server goroutines' appends.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	req    int
	open   int // innermost open span, the parent of the next
	replay bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.open, Req: t.req, Name: name, Replay: t.replay, Start: int64(time.Since(t.t0))})
	t.open = id
	return id
}

func (t *tracer) end(id int) span {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	t.open = s.Parent
	return *s
}

// request starts the next request: spans from here on carry its id.
func (t *tracer) request(id int) {
	t.mu.Lock()
	t.req = id
	t.mu.Unlock()
}

// timed records fn as one closed span.
func (t *tracer) timed(name string, fn func()) int64 {
	id := t.begin(name)
	fn()
	return t.end(id).dur()
}

// since returns the spans recorded from index mark on.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// coveredNS is the part of parent's interval that the children cover:
// each child is clipped to the parent, and time under overlapping
// children counts once.
func coveredNS(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return covered
}

// selfNS is a span's duration minus what its children cover.
func selfNS(parent span, children []span) int64 {
	return parent.dur() - coveredNS(parent, children)
}

// tracedWrapper records a span around the real Execute. Registered
// under the wrapped source's own name, it replaces it in the mediator.
type tracedWrapper struct {
	wrapper.Wrapper
	tr *tracer
	// answers, when non-nil, keeps each subplan's rows, which the vexec
	// replay serves its submit leaves from.
	answers map[*algebra.Node][]types.Row
	rows    int
}

func (w *tracedWrapper) Execute(plan *algebra.Node) (*wrapper.Result, error) {
	id := w.tr.begin("wrapper.submit." + w.Name())
	res, err := w.Wrapper.Execute(plan)
	w.tr.end(id)
	if res != nil {
		w.rows += len(res.Rows)
		if w.answers != nil {
			w.answers[plan] = res.Rows
		}
	}
	return res, err
}

// traceWrappers re-registers every source of the federation behind a
// tracedWrapper.
func traceWrappers(fed *serving.Federation, tr *tracer) (map[string]*tracedWrapper, error) {
	out := make(map[string]*tracedWrapper)
	for _, name := range sourceNames {
		w, ok := fed.Med.Wrapper(name)
		if !ok {
			return nil, fmt.Errorf("no wrapper %q", name)
		}
		tw := &tracedWrapper{Wrapper: w, tr: tr}
		if err := fed.Med.Register(tw); err != nil {
			return nil, err
		}
		out[name] = tw
	}
	return out, nil
}

// tracedHandler records a span around the real Server.Handle.
type tracedHandler struct {
	inner    serving.Handler
	med      *mediator.Mediator
	wrappers map[string]*tracedWrapper
	tr       *tracer
}

func (h *tracedHandler) Handle(req *proto.Request) *proto.Response {
	id := h.tr.begin("serving.handle")
	defer h.tr.end(id)
	if req.Op == loadgen.OpReregister {
		// Federation.Reregister would register the bare source again and
		// drop the decorator; make the same Mediator.Register call with
		// the decorated one.
		return h.reregister(req.Arg)
	}
	return h.inner.Handle(req)
}

func (h *tracedHandler) reregister(name string) *proto.Response {
	w, ok := h.wrappers[name]
	if !ok {
		return &proto.Response{Error: fmt.Sprintf("unknown wrapper %q", name)}
	}
	if err := h.med.Register(w); err != nil {
		return &proto.Response{Error: err.Error()}
	}
	return &proto.Response{OK: true, Text: "reregistered " + name}
}

// socketPass plays reqs from one client over a loopback socket against
// handler and returns each request's client-observed latency. With a
// tracer, every request gets an id and a client.roundtrip span.
func socketPass(w *workload, reqs []loadgen.Request, answers map[string]*oracleEntry, handler serving.Handler, tr *tracer) ([]int64, failures, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, failures{}, err
	}
	srv := serving.NewConnServer(handler, 5*time.Minute, nil)
	go srv.Serve(ln)
	defer srv.Shutdown(5 * time.Second)
	c, err := dialClient(w, 0, reqs, answers, ln.Addr().String())
	if err != nil {
		return nil, failures{}, err
	}
	defer c.conn.Close()
	lats := make([]int64, 0, len(reqs))
	for i := range reqs {
		var id int
		if tr != nil {
			tr.request(i + 1)
			id = tr.begin("client.roundtrip")
		}
		lat, _, _ := c.do(&reqs[i], false)
		if tr != nil {
			tr.end(id)
		}
		if c.wedge != nil {
			return nil, c.fails, c.wedge
		}
		lats = append(lats, int64(lat))
	}
	return lats, c.fails, nil
}

// directFacts is what one request did when replayed straight against
// Mediator.Query on a federation in the state the real request saw.
type directFacts struct {
	queryNS  int64
	planHit  bool
	wholeHit bool // served whole from the result cache: nothing executed
}

// directPass replays the requests, in order, by direct calls on a fresh
// deployed federation. One client and a deterministic program make its
// caches evolve exactly as under the socket pass, so request i here
// takes the path request i took there.
func directPass(w *workload, reqs []loadgen.Request, tr *tracer) ([]directFacts, *serving.Federation, error) {
	fed, err := w.federation(deployed)
	if err != nil {
		return nil, nil, err
	}
	wrappers, err := traceWrappers(fed, tr)
	if err != nil {
		return nil, nil, err
	}
	med := fed.Med
	facts := make([]directFacts, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		tr.request(i + 1)
		sql := statementSQL(w, r.SQL, i*numClients)
		switch r.Op {
		case loadgen.OpQuery:
			mark := tr.mark()
			before := med.Stats()
			var qerr error
			facts[i].queryNS = tr.timed("mediator.query", func() { _, qerr = med.Query(sql) })
			after := med.Stats()
			if qerr != nil {
				return nil, nil, qerr
			}
			facts[i].planHit = after.PlanCacheHits > before.PlanCacheHits
			facts[i].wholeHit = after.ResultCacheHits == before.ResultCacheHits+1 &&
				after.ResultCacheMisses == before.ResultCacheMisses && len(tr.since(mark)) == 1
		case loadgen.OpExplain:
			_, err = med.Explain(sql)
		case loadgen.OpAnalyze:
			_, err = med.ExplainAnalyze(sql)
		case loadgen.OpReregister:
			err = med.Register(wrappers[r.Arg])
		case loadgen.OpSetLink:
			err = fed.SetLink(r.Arg)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("direct pass, request %d (%s): %w", i, r.Op, err)
		}
	}
	return facts, fed, nil
}

// stepTimes are one statement's replayed steps, in ns.
type stepTimes struct {
	parse, prepareMiss, prepareHit, optimize, estimateRoot int64
	execute, engineSelf, vexecRun, encode, decode          int64
	plansCosted, rowsIn, frameBytes, rows                  int
}

const replayRepeats = 3

// medianOf runs fn replayRepeats times and returns the median time.
func medianOf(fn func() int64) int64 {
	xs := make([]int64, replayRepeats)
	for i := range xs {
		xs[i] = fn()
	}
	return medianInt64(xs)
}

// replayer replays single steps of a statement on a replay-variant
// federation: no plan cache, no result cache, so each call does its full
// work.
type replayer struct {
	tr       *tracer
	fed      *serving.Federation
	srv      *serving.Server
	wrappers map[string]*tracedWrapper
	// cached is the deployed federation the direct pass left behind; its
	// plan cache is what a prepare hit is timed on.
	cached *mediator.Mediator
}

func newReplayer(w *workload, tr *tracer, cached *mediator.Mediator) (*replayer, error) {
	fed, err := w.federation(replay)
	if err != nil {
		return nil, err
	}
	wrappers, err := traceWrappers(fed, tr)
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, fed: fed, srv: serving.NewServer(fed, 0), wrappers: wrappers, cached: cached}, nil
}

func (r *replayer) statement(sql string) (*stepTimes, error) {
	med, tr := r.fed.Med, r.tr
	st := &stepTimes{}
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}

	st.parse = medianOf(func() int64 {
		return tr.timed("sqlparser.parse", func() {
			_, e := sqlparser.Parse(sql)
			fail(e)
		})
	})
	var p *mediator.Prepared
	st.prepareMiss = medianOf(func() int64 {
		return tr.timed("mediator.prepare_miss", func() {
			var e error
			p, e = med.Prepare(sql)
			fail(e)
		})
	})
	if err != nil {
		return nil, err
	}
	st.optimize = medianOf(func() int64 {
		return tr.timed("optimizer.optimize", func() {
			est := med.Estimator.Clone()
			est.Reset()
			res, e := optimizer.New(med.Catalog, est, med.Optimizer.Opt).Optimize(p.Block)
			fail(e)
			if res != nil {
				st.plansCosted = res.PlansCosted
			}
		})
	})
	est := med.Estimator.Clone()
	st.estimateRoot = medianOf(func() int64 {
		// The first call warms the clone's scratch; the median is of
		// warm evaluations.
		_, e := est.EstimateRoot(p.Plan)
		fail(e)
		return tr.timed("core.estimate_root", func() { _, _ = est.EstimateRoot(p.Plan) })
	})
	st.prepareHit = medianOf(func() int64 {
		_, e := r.cached.Prepare(sql)
		fail(e)
		return tr.timed("mediator.prepare_hit", func() { _, _ = r.cached.Prepare(sql) })
	})

	answers := make(map[*algebra.Node][]types.Row)
	for _, tw := range r.wrappers {
		tw.answers = answers
	}
	selfs := make([]int64, 0, replayRepeats)
	st.execute = medianOf(func() int64 {
		mark := tr.mark()
		id := tr.begin("engine.execute")
		_, e := med.Engine.Execute(p.Plan)
		parent := tr.end(id)
		fail(e)
		selfs = append(selfs, selfNS(parent, tr.since(mark)[1:]))
		return parent.dur()
	})
	st.engineSelf = medianInt64(selfs)
	for _, tw := range r.wrappers {
		tw.answers = nil
	}
	leaf := func(n *algebra.Node) ([]types.Row, bool, error) {
		if n.Kind != algebra.OpSubmit {
			return nil, false, nil
		}
		return answers[n.Children[0]], true, nil
	}
	for _, rows := range answers {
		st.rowsIn += len(rows)
	}
	st.vexecRun = medianOf(func() int64 {
		return tr.timed("vexec.run", func() {
			_, e := vexec.Run(p.Plan, &vexec.Env{Leaf: leaf})
			fail(e)
		})
	})

	resp := r.srv.Handle(&proto.Request{Op: loadgen.OpQuery, SQL: sql})
	if !resp.OK {
		return nil, fmt.Errorf("replay %q: %s", sql, resp.Error)
	}
	st.rows = len(resp.Rows)
	var frame []byte
	st.encode = medianOf(func() int64 {
		return tr.timed("proto.encode", func() {
			var e error
			frame, e = proto.EncodeFrame(resp)
			fail(e)
		})
	})
	st.frameBytes = len(frame)
	st.decode = medianOf(func() int64 {
		rd := proto.NewReader(bytes.NewReader(frame))
		return tr.timed("proto.decode", func() {
			_, e := rd.ReadResponse()
			fail(e)
		})
	})
	return st, err
}

// registerNS times re-registration of each source, the write-locked
// path that drains readers and empties the caches.
func (r *replayer) registerNS() (int64, error) {
	var xs []int64
	var err error
	for i := 0; i < replayRepeats; i++ {
		for _, name := range sourceNames {
			xs = append(xs, r.tr.timed("mediator.register", func() {
				if e := r.fed.Med.Register(r.wrappers[name]); e != nil {
					err = e
				}
			}))
		}
	}
	return medianInt64(xs), err
}

// tracedRun is the separate traced run: the first traceRequests requests
// of client 0, played plain, then traced, then replayed layer by layer.
func tracedRun(out values, w *workload, r *rig) error {
	reqs := r.sched.Clients[0]
	for len(reqs) < w.traceRequests {
		reqs = append(reqs[:len(reqs):len(reqs)], r.sched.Clients[0]...)
	}
	reqs = reqs[:w.traceRequests]

	// Plain pass: same requests, no decorator anywhere.
	plainFed, err := w.federation(deployed)
	if err != nil {
		return err
	}
	plain, fails, err := socketPass(w, reqs, r.oracle, serving.NewServer(plainFed, 0), nil)
	if err != nil {
		return err
	}
	if fails.total() > 0 {
		return fmt.Errorf("plain pass: %+v", fails)
	}

	// Traced pass: handler and wrapper decorators installed.
	tr := newTracer()
	tracedFed, err := w.federation(deployed)
	if err != nil {
		return err
	}
	wrappers, err := traceWrappers(tracedFed, tr)
	if err != nil {
		return err
	}
	handler := &tracedHandler{inner: serving.NewServer(tracedFed, 0), med: tracedFed.Med, wrappers: wrappers, tr: tr}
	before := tracedFed.Med.Stats()
	traced, fails, err := socketPass(w, reqs, r.oracle, handler, tr)
	if err != nil {
		return err
	}
	if fails.total() > 0 {
		return fmt.Errorf("traced pass: %+v", fails)
	}
	after := tracedFed.Med.Stats()
	real := tr.since(0)

	// Direct pass and per-statement replays.
	tr.replay = true
	facts, directFed, err := directPass(w, reqs, tr)
	if err != nil {
		return err
	}
	rp, err := newReplayer(w, tr, directFed.Med)
	if err != nil {
		return err
	}
	steps := make(map[string]*stepTimes)
	for i := range reqs {
		q := &reqs[i]
		if q.Op != loadgen.OpQuery || steps[q.SQL] != nil {
			continue
		}
		tr.request(i + 1)
		if steps[q.SQL], err = rp.statement(statementSQL(w, q.SQL, 0)); err != nil {
			return err
		}
	}
	tr.request(0)
	registerNS, err := rp.registerNS()
	if err != nil {
		return err
	}

	layers(out, reqs, real, traced, plain, facts, steps)
	out.put("mediator.register_us", us(registerNS))
	out.put("mediator.reprepares", float64(after.Reprepares-before.Reprepares))
	out.put("resultcache.invalidations", float64(after.ResultCacheInvalidations-before.ResultCacheInvalidations))
	rows := 0
	for _, tw := range wrappers {
		rows += tw.rows
	}
	out.put("wrapper.rows_shipped", float64(rows))
	return writeTrace(w.name, tr.since(0))
}

// layers folds the spans and replays into the per-layer metrics.
func layers(out values, reqs []loadgen.Request, real []span, traced, plain []int64, facts []directFacts, steps map[string]*stepTimes) {
	// Real spans by request: the client round trip, the handler span
	// inside it, and the wrapper submits inside that.
	type realSpans struct {
		rt, handle span
		submits    []span
	}
	byReq := make([]realSpans, len(reqs))
	submitNS := map[string][]int64{}
	for _, s := range real {
		rs := &byReq[s.Req-1]
		switch s.Name {
		case "client.roundtrip":
			rs.rt = s
		case "serving.handle":
			rs.handle = s
		default:
			rs.submits = append(rs.submits, s)
			submitNS["all"] = append(submitNS["all"], s.dur())
			submitNS[s.Name] = append(submitNS[s.Name], s.dur())
		}
	}

	series := map[string][]int64{}
	add := func(name string, ns int64) { series[name] = append(series[name], ns) }
	var sumRT, sumOptimize, sumPlans, sumRowsIn, sumBytes, sumRows int64
	for i := range reqs {
		if reqs[i].Op != loadgen.OpQuery {
			continue
		}
		st, f, rs := steps[reqs[i].SQL], facts[i], byReq[i]
		prepare := st.prepareMiss
		if f.planHit {
			prepare = st.prepareHit
		}
		execute, engineSelf := st.execute, st.engineSelf
		if f.wholeHit {
			execute, engineSelf = 0, 0
			add("resultcache.hit_us", f.queryNS)
		}

		add("sqlparser.parse_us", st.parse)
		add("mediator.prepare_hit_us", st.prepareHit)
		add("mediator.prepare_miss_us", st.prepareMiss)
		add("mediator.bind_us", st.prepareMiss-st.parse-st.optimize)
		add("optimizer.optimize_us", st.optimize)
		add("core.estimate_root_us", st.estimateRoot)
		add("engine.execute_us", st.execute)
		add("engine.self_us", st.engineSelf)
		add("vexec.run_us", st.vexecRun)
		add("mediator.query_us", f.queryNS)
		add("mediator.self_us", f.queryNS-prepare-execute)
		add("serving.handle_us", rs.handle.dur())
		add("serving.self_us", rs.handle.dur()-f.queryNS)
		add("serving.wire_us", rs.rt.dur()-rs.handle.dur()-st.encode-st.decode)
		add("proto.encode_us", st.encode)
		add("proto.decode_us", st.decode)
		// The three layers of a request that no metric above names as
		// this request spent them.
		add("prepare", prepare)
		add("engine.self", engineSelf)
		add("wrapper.submits", coveredNS(rs.handle, rs.submits))

		sumRT += rs.rt.dur()
		sumOptimize += st.optimize
		sumPlans += int64(st.plansCosted)
		sumRowsIn += int64(st.rowsIn)
		sumBytes += int64(st.frameBytes)
		sumRows += int64(st.rows)
	}
	// A self time is a difference of two separately measured times, so
	// single requests can read below zero; the median is clamped, not
	// the samples, which would bias it upwards.
	for _, m := range perLayer {
		if xs, ok := series[m.Name]; ok {
			out.put(m.Name, us(max(0, medianInt64(xs))))
		}
	}
	if _, ok := series["resultcache.hit_us"]; !ok {
		out.put("resultcache.hit_us", 0)
	}
	out.put("wrapper.submit_us", us(medianInt64(submitNS["all"])))
	out.put("wrapper.submits", float64(len(submitNS["all"])))
	for _, name := range sourceNames {
		out.put("wrapper.submit_us."+name, us(medianInt64(submitNS["wrapper.submit."+name])))
	}
	out.put("optimizer.plans_costed", float64(sumPlans))
	out.put("optimizer.us_per_plan", us(sumOptimize)/float64(max(1, sumPlans)))
	out.put("vexec.rows_in", float64(sumRowsIn))
	out.put("proto.bytes_per_row", float64(sumBytes)/float64(max(1, sumRows)))

	// Coverage: the layers that partition a round trip, each summed over
	// the traced requests, against the round trips themselves.
	var sumLayers int64
	for _, name := range []string{"serving.wire_us", "proto.encode_us", "proto.decode_us", "serving.self_us",
		"mediator.self_us", "prepare", "engine.self", "wrapper.submits"} {
		var sum int64
		for _, ns := range series[name] {
			sum += ns
		}
		sumLayers += max(0, sum)
	}
	out.put("trace.coverage", float64(sumLayers)/float64(sumRT))

	diffs := make([]int64, len(traced))
	for i := range traced {
		diffs[i] = traced[i] - plain[i]
	}
	out.put("trace.overhead_pct", 100*float64(medianInt64(diffs))/float64(medianInt64(plain)))
}

// writeTrace dumps the spans to bench/out/trace-<workload>.json, next
// to this program's sources when run from the repository root.
func writeTrace(name string, spans []span) error {
	dir := filepath.Join("bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+name+".json"), data, 0o644)
}
