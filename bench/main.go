// Command bench is the repo's benchmark: four serving workloads driven
// closed-loop over real sockets against an in-process discod, answers
// verified against a sequential oracle, end-to-end metrics on the wall
// and the virtual clock with tracing off, and a separate traced run
// that times every layer from outside. See README.md beside this file.
//
// Usage:
//
//	go run ./bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	go run ./bench -seed 7 [-out results.json] [-commit $(git rev-parse HEAD)]
//	go run ./bench -compare a.json b.json
//
// The first form is one run of one workload; its last line of output is
// one JSON object (correct, attempted, failed, metrics). The second
// runs every workload, untraced three times and traced once, and prints
// every metric by name. The third compares two result files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print one JSON result line (default: all workloads)")
		seed    = flag.Int64("seed", 7, "schedule seed: the only input that changes what the clients send")
		seconds = flag.Int("seconds", defaultSeconds, "length of the timed closed loop")
		trace   = flag.Int("trace", 0, "with -workload: 1 adds the traced run and reports the per-layer metrics instead")
		out     = flag.String("out", "", "without -workload: also write the results to this JSON file")
		commit  = flag.String("commit", "", "without -workload: the commit to record, when the build carries no VCS stamp (go run leaves it out)")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	if err := realMain(*name, *seed, *seconds, *trace, *out, *commit, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

const (
	// defaultSeconds is BENCHMARK.json's run_seconds: thirteen p99Window
	// windows, and as long as the driver's cap on its 92 runs allows with
	// a margin (each run adds about 4 s of set-up to it).
	defaultSeconds = 26
	// reps is the number of untraced runs of each workload that runAll
	// makes; -compare reads a metric's spread off them.
	reps = 3
	// A run sets its workload up at least minSetUps times, and goes on
	// until setUpBudget has passed; setup_s is the median. Another
	// tenant's burst lasts about a second and a set-up 0.1 to 1 s, so a
	// fixed handful of the short ones would all sit inside one burst
	// (five in a row read 0.075 to 0.168 s between runs).
	minSetUps   = 3
	setUpBudget = 3 * time.Second
)

func realMain(name string, seed int64, seconds, trace int, out, commit string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if name == "" {
		return runAll(seed, seconds, out, commit)
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := measure(w, seed, time.Duration(seconds)*time.Second, trace != 0)
	if err != nil {
		return err
	}
	res.print(os.Stderr)
	// The driver's line carries the metrics BENCHMARK.json declares.
	metrics := make(values, len(endToEnd))
	for _, m := range declaredEndToEnd() {
		metrics[m.Name] = res.EndToEnd[m.Name]
	}
	if trace != 0 {
		metrics = make(values, len(perLayer))
		for _, m := range perLayer {
			v, ok := res.PerLayer[m.Name]
			if !ok {
				return fmt.Errorf("%s: the traced run did not measure %s", w.name, m.Name)
			}
			metrics[m.Name] = v
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d requests failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// result is one run of one workload.
type result struct {
	Workload       string   `json:"workload"`
	Seed           int64    `json:"seed"`
	Seconds        int      `json:"seconds"`
	ScheduleDigest string   `json:"schedule_digest"`
	Attempted      int      `json:"attempted"`
	Failed         int      `json:"failed"`
	Failures       failures `json:"failures"`
	Problems       []string `json:"problems,omitempty"`
	// LatencySamples is the number of OK query latencies behind p50_ms
	// and p99_ms. p99_ms is the median over P99Windows windows of each
	// window's 99th percentile; BeyondP99 samples lie above their own
	// window's.
	LatencySamples int    `json:"latency_samples"`
	P99Windows     int    `json:"p99_windows"`
	BeyondP99      int    `json:"beyond_p99"`
	EndToEnd       values `json:"end_to_end"`
	// PerLayer is filled by a traced run only.
	PerLayer values `json:"per_layer,omitempty"`
}

// measure sets the workload up, runs the timed loop with tracing off
// and, when asked, the traced run after it.
func measure(w *workload, seed int64, d time.Duration, traced bool) (*result, error) {
	var rig *rig
	var setups []float64
	for begun := time.Now(); len(setups) < minSetUps || time.Since(begun) < setUpBudget; {
		if rig != nil {
			rig.close()
		}
		// Each set-up starts from a collected heap: left to the previous
		// one's garbage, the same set-up reads 76 to 164 ms.
		runtime.GC()
		t0 := time.Now()
		r, err := setUp(w, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		rig = r
	}
	defer rig.close()
	timed := rig.run(d)
	sum := summarize(timed, len(w.templates))
	if w.tagged && timed.after.PlanCacheHits != 0 {
		return nil, fmt.Errorf("%s: %d plan-cache hits on statements that never repeat", w.name, timed.after.PlanCacheHits)
	}

	virtualMS, qerr := virtualMetrics(rig.sched, rig.oracle)
	res := &result{
		Workload:       w.name,
		Seed:           seed,
		Seconds:        int(d / time.Second),
		ScheduleDigest: fmt.Sprintf("%016x", rig.sched.Digest()),
		Attempted:      timed.attempted,
		Failed:         timed.fails.total(),
		Failures:       timed.fails,
		Problems:       timed.problems,
		LatencySamples: sum.Samples,
		P99Windows:     sum.P99Windows,
		BeyondP99:      sum.BeyondP99,
		EndToEnd:       make(values),
	}
	res.EndToEnd.put("qps", sum.QPS)
	res.EndToEnd.put("p50_ms", sum.P50MS)
	res.EndToEnd.put("p99_ms", sum.P99MS)
	res.EndToEnd.put("rows_per_s", sum.RowsPerS)
	res.EndToEnd.put("virtual_ms_per_query", virtualMS)
	res.EndToEnd.put("cost_qerror_p50", qerr)
	res.EndToEnd.put("fail_share", float64(res.Failed)/float64(res.Attempted))
	res.EndToEnd.put("setup_s", medianFloat(setups))
	if traced {
		res.PerLayer = make(values)
		timedLayers(res.PerLayer, w, timed, sum)
		if err := tracedRun(res.PerLayer, w, rig); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
	}
	return res, nil
}

// timedLayers reports what the timed loop says about single layers:
// the cache ratios from Mediator.Stats, the latency tail and each
// template's median, and the process's allocation and GC work.
func timedLayers(out values, w *workload, t *timedRun, sum timedSummary) {
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	b, a := t.before, t.after
	out.put("mediator.plancache_hit_ratio", ratio(a.PlanCacheHits-b.PlanCacheHits, a.PlanCacheMisses-b.PlanCacheMisses))
	out.put("resultcache.hit_ratio", ratio(a.ResultCacheHits-b.ResultCacheHits, a.ResultCacheMisses-b.ResultCacheMisses))
	out.put("loadgen.p999_ms", sum.P999MS)
	for i, name := range w.templates {
		out.put("loadgen.p50_ms."+name, sum.TemplateMS[i])
	}
	// MemStats are process-wide: they include the clients' JSON decode
	// and this program's own bookkeeping, not the mediator alone.
	ops := 0
	for _, s := range t.samples {
		ops += len(s)
	}
	out.put("runtime.alloc_kb_per_op", float64(t.mem1.TotalAlloc-t.mem0.TotalAlloc)/1024/float64(ops))
	out.put("runtime.gc_cycles", float64(t.mem1.NumGC-t.mem0.NumGC))
	out.put("runtime.gc_pause_ms", float64(t.mem1.PauseTotalNs-t.mem0.PauseTotalNs)/1e6)
}

func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "%s seed=%d seconds=%d schedule=%s attempted=%d failed=%d latency_samples=%d (%d beyond p99 in %d windows)\n",
		r.Workload, r.Seed, r.Seconds, r.ScheduleDigest, r.Attempted, r.Failed, r.LatencySamples, r.BeyondP99, r.P99Windows)
	if r.Failed > 0 {
		fmt.Fprintf(f, "  failures: %+v\n", r.Failures)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(f, "  problem: %s\n", p)
	}
	for _, m := range endToEnd {
		v := r.EndToEnd[m.Name]
		fmt.Fprintf(f, "  %-32s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	names := make([]string, 0, len(r.PerLayer))
	for name := range r.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.PerLayer[name]
		fmt.Fprintf(f, "  %-32s %14.4f %s\n", name, v.Value, v.Unit)
	}
}

// fingerprint identifies the host a result file was measured on.
// Numbers from hosts that differ in it are not comparable.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is recorded, not compared: two commits are what -compare
	// is for.
	Commit string `json:"commit"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				fp.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		fp.Commit += dirty
	}
	return fp
}

// resultFile is what runAll writes and -compare reads.
type resultFile struct {
	Host      fingerprint      `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Reps      int              `json:"reps"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult folds one workload's runs: every untraced run's
// end-to-end values, their medians, and the traced run's layers.
type workloadResult struct {
	Workload       string               `json:"workload"`
	ScheduleDigest string               `json:"schedule_digest"`
	Attempted      int                  `json:"attempted"`
	Failed         int                  `json:"failed"`
	LatencySamples int                  `json:"latency_samples"`
	EndToEnd       values               `json:"end_to_end"`
	Runs           map[string][]float64 `json:"end_to_end_runs"`
	PerLayer       values               `json:"per_layer"`
}

// runAll is the one command that prints every metric of every workload.
// The rounds are the outer loop, so each workload's runs span the whole
// session and their spread includes the host's drift over minutes; the
// last round is the traced one.
func runAll(seed int64, seconds int, out, commit string) error {
	file := resultFile{Host: hostFingerprint(), Seed: seed, Seconds: seconds, Reps: reps}
	if commit != "" {
		file.Host.Commit = commit
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n", file.Host.NProc, file.Host.GOMAXPROCS,
		file.Host.GoVersion, file.Host.GOOS, file.Host.GOARCH, file.Host.Commit)
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, workloadResult{Workload: w.name, Runs: make(map[string][]float64), EndToEnd: make(values)})
	}
	d := time.Duration(seconds) * time.Second
	failed := 0
	for round := 0; round <= reps; round++ {
		traced := round == reps
		for i, w := range workloads {
			res, err := measure(w, seed, d, traced)
			if err != nil {
				return err
			}
			res.print(os.Stdout)
			wr := &file.Workloads[i]
			wr.ScheduleDigest = res.ScheduleDigest
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			failed += res.Failed
			if traced {
				// Only an untraced process state counts end to end.
				wr.PerLayer = res.PerLayer
				continue
			}
			wr.LatencySamples = res.LatencySamples
			for _, m := range endToEnd {
				wr.Runs[m.Name] = append(wr.Runs[m.Name], res.EndToEnd[m.Name].Value)
			}
		}
	}
	for i := range file.Workloads {
		wr := &file.Workloads[i]
		for _, m := range endToEnd {
			wr.EndToEnd.put(m.Name, medianFloat(wr.Runs[m.Name]))
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed", failed)
	}
	return nil
}
