package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"disco/internal/loadgen"
	"disco/internal/sqlparser"
)

func TestScheduleDigestsStablePerSeed(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) uint64 {
			s, err := w.schedule(seed)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if len(s.Clients) != numClients {
				t.Fatalf("%s: %d clients", w.name, len(s.Clients))
			}
			return s.Digest()
		}
		if a, b := digest(7), digest(7); a != b {
			t.Errorf("%s: seed 7 gave digests %x and %x", w.name, a, b)
		}
		if a, b := digest(7), digest(11); a == b {
			t.Errorf("%s: seeds 7 and 11 gave the same schedule", w.name)
		}
	}
}

func TestTemplatesCoverSchedule(t *testing.T) {
	for _, w := range workloads {
		s, err := w.schedule(7)
		if err != nil {
			t.Fatal(err)
		}
		for _, reqs := range s.Clients {
			for _, r := range reqs {
				if r.Op == loadgen.OpQuery && (r.Template < 0 || r.Template >= len(w.templates)) {
					t.Fatalf("%s: template %d of %q has no name", w.name, r.Template, r.SQL)
				}
			}
		}
	}
}

func TestWideJoinStatementsUniqueAndParse(t *testing.T) {
	w := findWorkload("adhoc-widejoin")
	s, err := w.schedule(7)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for c, reqs := range s.Clients {
		// Two cycles: the serial keeps the text new when the cycle wraps.
		for i := 0; i < 2*len(reqs); i++ {
			r := &reqs[i%len(reqs)]
			sql := statementSQL(w, r.SQL, i*numClients+c)
			if seen[sql] {
				t.Fatalf("statement repeats: %s", sql)
			}
			seen[sql] = true
			q, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if n := len(q.From); n < 3 || n > 8 || n != r.Template+3 {
				t.Fatalf("%d relations under template %d: %s", n, r.Template, sql)
			}
		}
	}
}

// TestSmoke sets each workload up (which checks every statement's
// digest over the socket) and plays 200 more requests.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := setUp(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			r.eachClient(func(c *client) {
				for i := 0; i < 200/numClients && c.wedge == nil; i++ {
					c.do(&c.reqs[i%len(c.reqs)], i%2 == 0)
				}
			})
			r.close()
			for _, c := range r.clients {
				if c.wedge != nil {
					t.Error(c.wedge)
				}
				if c.fails.total() != 0 {
					t.Errorf("client %d failures %+v %v", c.idx, c.fails, c.mismatches)
				}
				if c.sent < 200/numClients {
					t.Errorf("client %d sent %d", c.idx, c.sent)
				}
			}
			if virtualMS, qerr := virtualMetrics(r.sched, r.oracle); virtualMS <= 0 || qerr < 1 {
				t.Errorf("virtual_ms_per_query %g, cost_qerror_p50 %g", virtualMS, qerr)
			}
			if hits := r.fed.Med.Stats().PlanCacheHits; w.tagged && hits != 0 {
				t.Errorf("%d plan-cache hits", hits)
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 110, End: 140}}, 70},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 130, End: 160}}, 50},
		{"nested child adds nothing", []span{{Start: 110, End: 150}, {Start: 120, End: 130}}, 60},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 300}}, 70},
		{"outside the parent", []span{{Start: 10, End: 90}, {Start: 200, End: 250}}, 100},
		{"unsorted", []span{{Start: 150, End: 170}, {Start: 110, End: 120}}, 70},
		{"covers all", []span{{Start: 100, End: 200}, {Start: 100, End: 200}}, 0},
	} {
		if got := selfNS(parent, tc.children); got != tc.want {
			t.Errorf("%s: self %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.request(3)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	spans := tr.since(0)
	want := []struct {
		name   string
		parent int
	}{{"outer", 0}, {"inner", outer}, {"sibling", outer}}
	for i, w := range want {
		if s := spans[i]; s.Name != w.name || s.Parent != w.parent || s.Req != 3 || s.End < s.Start {
			t.Errorf("span %d: %+v, want %s under %d", i, s, w.name, w.parent)
		}
	}
}

func TestQuantile(t *testing.T) {
	sorted := make([]int64, 200)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0.5: 100, 0.99: 198, 0.999: 200, 0: 1} {
		if got := quantileNS(sorted, q); got != want {
			t.Errorf("quantile %g: %d, want %d", q, got, want)
		}
	}
}

// TestP99IsMedianOfWindows: one disturbed window moves the whole run's
// 99th percentile and leaves p99_ms where the quiet windows put it.
func TestP99IsMedianOfWindows(t *testing.T) {
	// Three full windows of 100 replies, 1 to 100 ms each; the second is
	// ten times slower. A reply after the last full window is left out.
	var samples []sample
	for w, scale := range []int64{1, 10, 1} {
		for i := int64(1); i <= 100; i++ {
			end := int64(w)*int64(p99Window) + i*int64(p99Window)/200
			samples = append(samples, sample{latNS: scale * i * 1e6, endNS: end, ok: true})
		}
	}
	samples = append(samples, sample{latNS: 5000e6, endNS: 3*int64(p99Window) + 1, ok: true})
	sum := summarize(&timedRun{samples: [][]sample{samples}, elapsed: 3*p99Window + p99Window/2}, 1)
	if sum.P99MS != 99 || sum.P99Windows != 3 || sum.BeyondP99 != 3 {
		t.Errorf("p99 %g ms over %d windows, %d beyond; want 99 over 3, 3 beyond", sum.P99MS, sum.P99Windows, sum.BeyondP99)
	}
	if sum.P999MS != 5000 || sum.Samples != 301 {
		t.Errorf("p99.9 %g ms over %d samples; want the whole run's, 5000 over 301", sum.P999MS, sum.Samples)
	}
	// A run shorter than one window reports its own 99th percentile.
	short := summarize(&timedRun{samples: [][]sample{samples[:100]}, elapsed: p99Window / 2}, 1)
	if short.P99MS != 99 || short.P99Windows != 0 || short.BeyondP99 != 1 {
		t.Errorf("short run: p99 %g ms, %d windows, %d beyond; want 99, 0, 1", short.P99MS, short.P99Windows, short.BeyondP99)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	absolute := metricDef{Name: "fail_share", Better: "lower"}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, []float64{1.00, 1.01, 0.99}, []float64{1.00, 1.02, 0.98}, verdictOK},
		{"slower within the bound", lower, []float64{1.00, 1.01, 0.99}, []float64{1.08, 1.07, 1.09}, verdictOK},
		{"slower past the bound", lower, []float64{1.00, 1.01, 0.99}, []float64{1.20, 1.21, 1.19}, verdictWorse},
		{"faster", lower, []float64{1.00, 1.01, 0.99}, []float64{0.50, 0.51, 0.49}, verdictOK},
		{"throughput down past the bound", higher, []float64{1000, 1010, 990}, []float64{800, 805, 795}, verdictWorse},
		{"throughput up", higher, []float64{1000, 1010, 990}, []float64{1300, 1310, 1290}, verdictOK},
		{"too noisy to tell", lower, []float64{1.00, 1.30, 0.90}, []float64{1.05, 1.00, 1.10}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{1.00, 1.30, 0.90}, []float64{0.50, 0.60, 0.70}, verdictOK},
		{"noisy and worse", higher, []float64{1000, 1300, 900}, []float64{700, 750, 950}, verdictUnresolved},
		{"single runs", lower, []float64{1.00}, []float64{1.30}, verdictWorse},
		{"no failures", absolute, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictOK},
		{"one failing run", absolute, []float64{0, 0, 0}, []float64{0, 0, 0.0001}, verdictWorse},
	} {
		if got := judge(tc.m, tc.a, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: %s (worse by %.3f, spread %.3f), want %s", tc.name, got.Verdict, got.Worse, got.Spread, tc.want)
		}
	}
}

func TestCompareRefusesUnlikeFiles(t *testing.T) {
	file := func() *resultFile {
		f := &resultFile{Host: fingerprint{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "aaaa"}, Seconds: 12}
		for _, w := range workloads {
			wr := workloadResult{Workload: w.name, ScheduleDigest: "00ff", Runs: map[string][]float64{}}
			for _, m := range endToEnd {
				wr.Runs[m.Name] = []float64{10, 10.01}
			}
			wr.Runs["fail_share"] = []float64{0, 0}
			f.Workloads = append(f.Workloads, wr)
		}
		return f
	}
	a, b := file(), file()
	b.Host.Commit = "bbbb"
	rows, err := compareResults(a, b)
	if err != nil {
		t.Fatalf("same host, other commit: %v", err)
	}
	if len(rows) != len(workloads)*len(endToEnd) {
		t.Errorf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Verdict != verdictOK {
			t.Errorf("%s %s: %s", r.Workload, r.Metric.Name, r.Verdict)
		}
	}
	b = file()
	b.Host.NProc = 8
	if _, err := compareResults(a, b); err == nil || !strings.Contains(err.Error(), "host") {
		t.Errorf("other nproc: %v", err)
	}
	b = file()
	b.Workloads[1].ScheduleDigest = "1234"
	if _, err := compareResults(a, b); err == nil || !strings.Contains(err.Error(), "schedule") {
		t.Errorf("other schedule: %v", err)
	}
	b = file()
	b.Seconds = 30
	if _, err := compareResults(a, b); err == nil {
		t.Error("other run length accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this program's tables equal.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	if want := declaredEndToEnd(); !reflect.DeepEqual(spec.EndToEnd, want) {
		t.Errorf("end_to_end:\n%+v\nwant\n%+v", spec.EndToEnd, want)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer:\n%+v\nwant\n%+v", spec.PerLayer, perLayer)
	}
}
