package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"disco"
	"disco/internal/loadgen"
	"disco/internal/resultcache"
	"disco/internal/serving"
)

// Load shape shared by every workload: a closed loop of two client
// connections from this one process, two being nproc on the host the
// benchmark was sized on.
const (
	numClients = 2
	// populationSeed fixes each loadgen-built workload's cycle of
	// statements (hot pool, ad-hoc literals, events). -seed then picks
	// where in the cycle each client starts, so every seed plays one
	// traffic mix instead of inventing its own hot pool — a pool re-drawn
	// per seed moves rows per request by ±40%.
	populationSeed = 12
	// admission mirrors discod's shipped defaults.
	maxInFlight  = 32
	queueTimeout = time.Second
)

// workload is one traffic mix over one federation.
type workload struct {
	name string
	why  string
	// traceRequests is how many requests of client 0 the traced run
	// plays.
	traceRequests int
	// templates names the query shapes, indexed by Request.Template.
	templates []string
	// tagged statements end in an always-true predicate whose literal
	// the driver completes with a serial unique within the run, so the
	// SQL text never repeats and the plan cache always misses.
	tagged bool
	// federation assembles a fresh deployment of the given variant.
	federation func(v variant) (*serving.Federation, error)
	// schedule generates each client's request cycle from the seed.
	schedule func(seed int64) (*loadgen.Schedule, error)
}

var workloads = []*workload{
	{
		name:          "hot-oltp",
		why:           "32 zipf-hot statements on the 2000-part demo federation: every prepare hits the plan cache, time goes to engine, wrapper submits and the wire; an optimizer change must not move it",
		traceRequests: 2000,
		templates:     templateNames(loadgen.DemoTemplates(2000)),
		federation: func(v variant) (*serving.Federation, error) {
			return demoFederation(2000, v, false)
		},
		schedule: func(seed int64) (*loadgen.Schedule, error) {
			return populationCycle(seed, 8192, loadgen.Config{
				Templates: loadgen.DemoTemplates(2000),
				HotRatio:  1.0,
				HotPool:   32,
				ZipfS:     1.3,
			})
		},
	},
	{
		name:          "adhoc-widejoin",
		why:           "never-repeated 3- to 8-way joins over nine small relations on three wrapper classes: the plan cache always misses, so parse+bind+optimize (the blended cost model) is about half of each request",
		traceRequests: 300,
		templates:     []string{"join3", "join4", "join5", "join6", "join7", "join8"},
		tagged:        true,
		federation:    joinFederation,
		schedule:      joinSchedule,
	},
	{
		name:          "scan-analytic",
		why:           "eight large scans, sorts, aggregates and joins at the paper's 14000-part OO7 scale: 1k-14k-row answers, so time goes to objstore scans, vexec breakers and row encoding, not per-request overhead",
		traceRequests: 120,
		templates:     scanTemplates,
		federation: func(v variant) (*serving.Federation, error) {
			return demoFederation(14000, v, false)
		},
		schedule: scanSchedule,
	},
	{
		name:          "churn-mixed",
		why:           "discod's flags plus the result cache under explain, re-registration and link-change events: write-locked registration, epoch invalidation and feedback absorption between cache-hit serving",
		traceRequests: 2000,
		templates:     templateNames(loadgen.DemoTemplates(2000)),
		federation: func(v variant) (*serving.Federation, error) {
			return demoFederation(2000, v, true)
		},
		schedule: func(seed int64) (*loadgen.Schedule, error) {
			return populationCycle(seed, 2048, loadgen.Config{
				Templates: loadgen.DemoTemplates(2000),
				HotRatio:  0.7,
				Mix:       loadgen.DefaultMix(),
			})
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func templateNames(ts []loadgen.Template) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// variant selects which caches a federation runs with.
type variant int

const (
	// deployed is the workload as it serves traffic.
	deployed variant = iota
	// oracle turns plan cache, result cache and feedback off: every
	// statement is planned and executed from scratch on the bare model.
	oracle
	// replay is deployed with plan cache and result cache off, so a
	// replayed prepare or execute does its full work every time.
	replay
)

// demoFederation builds the three-source demo deployment. churn turns on
// what discod ships with (feedback) plus the result cache.
func demoFederation(parts int, v variant, churn bool) (*serving.Federation, error) {
	opts := serving.Options{Parts: parts, MaxInFlight: maxInFlight, QueueTimeout: queueTimeout}
	if v != deployed {
		opts.PlanCacheSize = -1
	}
	if churn {
		opts.Feedback = v != oracle
		opts.ResultCache = resultcache.Config{Enabled: v == deployed}
	}
	return serving.NewDemoFederation(opts)
}

// populationCycle generates the workload's fixed cycle of requests per
// client and returns it rotated: each client starts at a seed-drawn
// offset and wraps. Every seed therefore plays the same requests, in
// another phase and with the clients shifted against each other. A window
// of a longer population changes the mix with the seed: on churn-mixed
// the count of invalidating events in a window moved p50_ms between 0.12
// and 0.16 ms, each repeating within 3% for its seed.
func populationCycle(seed int64, cycleLen int, cfg loadgen.Config) (*loadgen.Schedule, error) {
	cfg.Seed = populationSeed
	cfg.Clients = numClients
	cfg.Requests = cycleLen
	pop, err := loadgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := &loadgen.Schedule{Cfg: pop.Cfg, Clients: make([][]loadgen.Request, numClients)}
	s.Cfg.Seed = seed
	for c, stream := range pop.Clients {
		off := rng.Intn(len(stream))
		s.Clients[c] = append(append([]loadgen.Request(nil), stream[off:]...), stream[:off]...)
	}
	return s, nil
}

// Synthetic join federation: nine relations R0..R8 of two ints, Rk's
// named idk and fkk, spread round-robin over an object, a relational and
// a file wrapper. Rk.fkk = Rj.idj edges form a chain plus chords, the
// join graph of the repo's BenchmarkOptimize fixture.
//
// The attribute names carry the relation's number because the program
// under test answers joins of relations that share attribute names with
// plan-dependent row counts (see README.md, "Known defect"); a workload
// must not fail, so this one stays clear of it.
var (
	joinSizes = []int{100, 50, 80, 45, 60, 70, 45, 90, 55}
	joinEdges = [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {0, 3}, {2, 6}, {1, 8}}
	// sourceNames are the demo federation's three sources. The join
	// federation reuses them for its object, relational and file source,
	// so the per-wrapper metric names are the same on every workload.
	sourceNames = []string{"oo7", "suppliers", "inspections"}
)

func joinFederation(v variant) (*serving.Federation, error) {
	cfg := disco.DefaultConfig()
	cfg.MaxInFlight = maxInFlight
	cfg.AdmissionTimeout = queueTimeout
	if v != deployed {
		cfg.PlanCacheSize = -1
	}
	m, err := disco.NewMediator(cfg)
	if err != nil {
		return nil, err
	}
	ostore := disco.OpenObjectStore(m, disco.DefaultObjectStoreConfig())
	rstore := disco.OpenRelationalStore(m, disco.DefaultRelationalStoreConfig())
	fstore := disco.OpenFileStore(m, disco.DefaultFileStoreConfig())
	for i, size := range joinSizes {
		name := fmt.Sprintf("R%d", i)
		schema := disco.NewSchema(
			disco.Field(name, fmt.Sprintf("id%d", i), disco.KindInt),
			disco.Field(name, fmt.Sprintf("fk%d", i), disco.KindInt),
		)
		var insert func(disco.Row) error
		switch i % 3 {
		case 0:
			coll, err := ostore.CreateCollection(name, schema, 64)
			if err != nil {
				return nil, err
			}
			insert = coll.Insert
		case 1:
			tbl, err := rstore.CreateTable(name, schema, 48)
			if err != nil {
				return nil, err
			}
			insert = tbl.Insert
		default:
			file, err := fstore.CreateFile(name, schema)
			if err != nil {
				return nil, err
			}
			insert = file.Append
		}
		for r := 0; r < size; r++ {
			if err := insert(disco.Row{disco.Int(int64(r)), disco.Int(int64(r % 50))}); err != nil {
				return nil, err
			}
		}
	}
	for _, w := range []disco.Wrapper{
		disco.NewObjectWrapper(sourceNames[0], ostore),
		disco.NewRelationalWrapper(sourceNames[1], rstore),
		disco.NewFileWrapper(sourceNames[2], fstore),
	} {
		if err := m.Register(w); err != nil {
			return nil, err
		}
	}
	return &serving.Federation{Med: m}, nil
}

// joinSchedule: each client's cycle is a fixed population of statements,
// each a connected 3- to 8-relation subgraph of the join graph with every
// edge inside it as a join predicate, plus one selective range filter.
// The seed moves each filter's bound by at most one and shuffles the
// order. The statement ends in the open tag predicate the driver
// completes (see workload.tagged).
func joinSchedule(seed int64) (*loadgen.Schedule, error) {
	const perClient = 64
	population := rand.New(rand.NewSource(populationSeed))
	rng := rand.New(rand.NewSource(seed))
	s := &loadgen.Schedule{
		Cfg:     loadgen.Config{Seed: seed, Clients: numClients, Requests: perClient},
		Clients: make([][]loadgen.Request, numClients),
	}
	for c := range s.Clients {
		reqs := make([]loadgen.Request, perClient)
		for i := range reqs {
			k := 3 + population.Intn(6)
			reqs[i] = loadgen.Request{Op: loadgen.OpQuery, SQL: joinStatement(population, k, rng.Intn(3)-1), Template: k - 3}
		}
		rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
		s.Clients[c] = reqs
	}
	return s, nil
}

func joinStatement(rng *rand.Rand, k, jitter int) string {
	in := map[int]bool{rng.Intn(len(joinSizes)): true}
	for len(in) < k {
		// Grow along a random edge that leaves the chosen set.
		var frontier [][2]int
		for _, e := range joinEdges {
			if in[e[0]] != in[e[1]] {
				frontier = append(frontier, e)
			}
		}
		e := frontier[rng.Intn(len(frontier))]
		in[e[0]], in[e[1]] = true, true
	}
	var rels []int
	for r := range joinSizes {
		if in[r] {
			rels = append(rels, r)
		}
	}
	var from, where []string
	for _, r := range rels {
		from = append(from, fmt.Sprintf("R%d", r))
	}
	for _, e := range joinEdges {
		if in[e[0]] && in[e[1]] {
			where = append(where, fmt.Sprintf("R%d.fk%d = R%d.id%d", e[0], e[0], e[1], e[1]))
		}
	}
	// A selective filter keeps answers to tens of rows, so planning and
	// not execution is most of the request.
	filtered := rels[rng.Intn(len(rels))]
	where = append(where, fmt.Sprintf("R%d.id%d < %d", filtered, filtered, 6+rng.Intn(38)+jitter))
	first, last := rels[0], rels[len(rels)-1]
	return fmt.Sprintf("SELECT R%d.id%d, R%d.fk%d FROM %s WHERE %s AND R%d.fk%d < ",
		first, first, last, last, strings.Join(from, ", "), strings.Join(where, " AND "), first, first)
}

// tagBase keeps every completed tag literal far above any fk value, so
// the tag predicate is always true.
const tagBase = 1000000

// Scan statements: integer-only projections, so result digests do not
// depend on the plan. The two range bounds are drawn by the seed within
// ±1% of the half range.
var scanTemplates = []string{
	"parts-full", "parts-half", "parts-sort", "parts-group",
	"parts-distinct", "join-inspections", "join-3way", "connections-range",
}

func scanSchedule(seed int64) (*loadgen.Schedule, error) {
	const (
		parts  = 14000
		blocks = 32
	)
	rng := rand.New(rand.NewSource(seed))
	half := parts/2 - parts/200 + rng.Intn(parts/100)
	conn := parts/7 - parts/700 + rng.Intn(parts/350)
	stmts := []string{
		`SELECT id, x, y FROM AtomicParts`,
		fmt.Sprintf(`SELECT id, x, y FROM AtomicParts WHERE AtomicParts.id < %d`, half),
		fmt.Sprintf(`SELECT id, x FROM AtomicParts WHERE AtomicParts.id < %d ORDER BY x`, half),
		`SELECT docId, count(*) AS n FROM AtomicParts GROUP BY docId`,
		`SELECT DISTINCT docId FROM AtomicParts`,
		`SELECT AtomicParts.id, passed FROM AtomicParts, Inspections WHERE AtomicParts.id = part`,
		`SELECT AtomicParts.id, passed, region FROM AtomicParts, Inspections, Suppliers WHERE AtomicParts.id = part AND part = sid`,
		fmt.Sprintf(`SELECT src, dst, length FROM Connections WHERE src < %d`, conn),
	}
	s := &loadgen.Schedule{
		Cfg:     loadgen.Config{Seed: seed, Clients: numClients, Requests: blocks * len(stmts)},
		Clients: make([][]loadgen.Request, numClients),
	}
	for c := range s.Clients {
		// Uniform traffic in shuffled blocks of all eight: any stretch of
		// a run carries the same mix, so rows per second varies with the
		// program's speed and not with which statements a second drew.
		reqs := make([]loadgen.Request, 0, blocks*len(stmts))
		for b := 0; b < blocks; b++ {
			for _, t := range rng.Perm(len(stmts)) {
				reqs = append(reqs, loadgen.Request{Op: loadgen.OpQuery, SQL: stmts[t], Template: t, Hot: true})
			}
		}
		s.Clients[c] = reqs
	}
	return s, nil
}
