package loadgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
)

// Op names match the wire protocol ops the generated requests are sent
// as (internal/proto). Reregister and setlink are the chaos events: a
// write-locked catalog re-registration and a netsim link perturbation.
const (
	OpQuery      = "query"
	OpExplain    = "explain"
	OpAnalyze    = "explain-analyze"
	OpReregister = "reregister"
	OpSetLink    = "setlink"
)

// Request is one generated client request.
type Request struct {
	// Op is the protocol operation.
	Op string
	// SQL carries the statement for query/explain/explain-analyze.
	SQL string
	// Arg carries the event argument (wrapper name for reregister,
	// "wrapper latencyMS perByteMS" for setlink).
	Arg string
	// Template indexes Config.Templates for query ops; -1 for events.
	Template int
	// Hot marks a request drawn from the zipf-skewed hot statement pool:
	// its SQL text repeats across the run, so a prepared-plan cache
	// should serve it. Cold (ad-hoc) requests carry fresh literals that
	// force a full prepare.
	Hot bool
	// Sample marks a query whose response the driver records for
	// sequential-oracle verification.
	Sample bool
}

// Template is one parameterized query shape: Pattern must contain a
// single %d verb instantiated from [ArgLo, ArgHi).
type Template struct {
	Name    string
	Pattern string
	ArgLo   int
	ArgHi   int
}

// Instantiate renders the template for one argument value.
func (t Template) Instantiate(arg int) string {
	return fmt.Sprintf(t.Pattern, arg)
}

// DemoTemplates are the default query shapes over the discod demo
// federation (OO7 + Suppliers + Inspections): indexed object scans,
// relational filters, a cross-source join and a grouping aggregate. Every
// template's result is a deterministic function of the federation data,
// so responses can be checked against a sequential oracle. Patterns
// avoid floats: integer-only results hash identically regardless of the
// plan that produced them.
//
// parts is the OO7 AtomicParts cardinality of the deployment the
// workload will run against; predicates scale with it so selectivity
// stays constant across deployment sizes.
func DemoTemplates(parts int) []Template {
	if parts <= 0 {
		parts = 14000
	}
	return []Template{
		{Name: "supplier-region", Pattern: `SELECT sname FROM Suppliers WHERE region = %d`, ArgLo: 0, ArgHi: 12},
		{Name: "parts-range", Pattern: `SELECT x, y FROM AtomicParts WHERE AtomicParts.id < %d`, ArgLo: 1, ArgHi: parts/10 + 2},
		{Name: "parts-point", Pattern: `SELECT docId FROM AtomicParts WHERE AtomicParts.id = %d`, ArgLo: 0, ArgHi: parts},
		{Name: "inspections-scan", Pattern: `SELECT part, passed FROM Inspections WHERE part < %d`, ArgLo: 1, ArgHi: parts + 1},
		{Name: "join-inspect-supplier", Pattern: `SELECT sname, passed FROM Suppliers, Inspections WHERE part = sid AND region = %d`, ArgLo: 0, ArgHi: 12},
		{Name: "group-regions", Pattern: `SELECT region, count(*) AS n FROM Suppliers WHERE sid < %d GROUP BY region`, ArgLo: 50, ArgHi: 500},
	}
}

// Mix sets the per-10000 request weights of the non-query operations;
// the remainder are queries. The zero Mix generates queries only.
type Mix struct {
	Explain    int // explain ops per 10000 requests
	Analyze    int // explain-analyze ops per 10000 requests
	Reregister int // wrapper re-registration events per 10000 requests
	SetLink    int // netsim link perturbations per 10000 requests
}

// DefaultMix keeps chaos events rare (each re-registration drains the
// serving read lock) while still exercising every path continuously.
func DefaultMix() Mix {
	return Mix{Explain: 200, Analyze: 100, Reregister: 20, SetLink: 30}
}

// total is the event mass out of 10000.
func (m Mix) total() int { return m.Explain + m.Analyze + m.Reregister + m.SetLink }

// ParseMix parses "explain=200,analyze=100,reregister=20,setlink=30"
// (missing keys are zero; an empty spec is the zero Mix).
func ParseMix(spec string) (Mix, error) {
	var m Mix
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return m, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix entry %q needs key=weight", kv)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q: want a non-negative integer", val)
		}
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "explain":
			m.Explain = n
		case "analyze":
			m.Analyze = n
		case "reregister":
			m.Reregister = n
		case "setlink":
			m.SetLink = n
		default:
			return m, fmt.Errorf("loadgen: unknown mix op %q", key)
		}
	}
	if m.total() > 10000 {
		return m, fmt.Errorf("loadgen: mix weights sum to %d > 10000", m.total())
	}
	return m, nil
}

// Config parameterizes one generated workload.
type Config struct {
	// Seed drives every random choice; equal configs generate
	// bit-identical schedules.
	Seed int64
	// Clients is the number of concurrent client connections.
	Clients int
	// Requests is the per-client request count.
	Requests int
	// Templates are the query shapes; nil uses DemoTemplates(14000).
	Templates []Template
	// HotRatio is the fraction of queries drawn from the hot statement
	// pool (identical SQL text, zipf-skewed popularity — the
	// prepared-statement share of the mix). The remainder are ad-hoc:
	// fresh literals that force a full prepare. Negative disables the hot
	// pool; 0 uses DefaultHotRatio.
	HotRatio float64
	// HotPool is the number of distinct hot statements; 0 uses
	// DefaultHotPool.
	HotPool int
	// ZipfS is the zipf skew exponent over the hot pool (must be > 1);
	// 0 uses DefaultZipfS.
	ZipfS float64
	// Mix weights the non-query operations.
	Mix Mix
	// SampleEvery marks every n-th query of each client for oracle
	// verification; 0 disables sampling.
	SampleEvery int
	// Wrappers are the event targets; nil uses the demo federation's
	// three sources.
	Wrappers []string
}

// Defaults of the zero Config fields.
const (
	DefaultHotRatio = 0.7
	DefaultHotPool  = 32
	DefaultZipfS    = 1.3
)

// Schedule is a fully generated workload: one deterministic request
// sequence per client. The schedule is a pure function of its Config —
// drive it against any number of servers without perturbing it.
type Schedule struct {
	Cfg     Config
	Clients [][]Request
}

// Generate builds the deterministic schedule for a config. Each client's
// sequence comes from its own PRNG seeded by (Seed, client index), so
// the schedule and the client/request assignment are bit-identical
// across runs and independent of goroutine interleaving at drive time.
func Generate(cfg Config) (*Schedule, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("loadgen: Clients must be positive, got %d", cfg.Clients)
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: Requests must be positive, got %d", cfg.Requests)
	}
	if cfg.Templates == nil {
		cfg.Templates = DemoTemplates(14000)
	}
	if len(cfg.Templates) == 0 {
		return nil, fmt.Errorf("loadgen: no query templates")
	}
	switch {
	case cfg.HotRatio == 0:
		cfg.HotRatio = DefaultHotRatio
	case cfg.HotRatio < 0:
		cfg.HotRatio = 0
	case cfg.HotRatio > 1:
		return nil, fmt.Errorf("loadgen: HotRatio %g > 1", cfg.HotRatio)
	}
	if cfg.HotPool <= 0 {
		cfg.HotPool = DefaultHotPool
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = DefaultZipfS
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("loadgen: ZipfS must be > 1, got %g", cfg.ZipfS)
	}
	if cfg.Mix.total() > 10000 {
		return nil, fmt.Errorf("loadgen: mix weights sum to %d > 10000", cfg.Mix.total())
	}
	if cfg.Wrappers == nil {
		cfg.Wrappers = []string{"oo7", "suppliers", "inspections"}
	}

	// The hot statement pool is shared by every client (that is what
	// makes it hot server-side); its instances are drawn from a dedicated
	// PRNG so pool membership depends only on the seed.
	poolRNG := rand.New(rand.NewSource(splitmix(cfg.Seed, 0x9e3779b97f4a7c15)))
	hotPool := make([]Request, cfg.HotPool)
	for i := range hotPool {
		t := i % len(cfg.Templates)
		tpl := cfg.Templates[t]
		hotPool[i] = Request{
			Op:       OpQuery,
			SQL:      tpl.Instantiate(tpl.ArgLo + poolRNG.Intn(max(1, tpl.ArgHi-tpl.ArgLo))),
			Template: t,
			Hot:      true,
		}
	}

	s := &Schedule{Cfg: cfg, Clients: make([][]Request, cfg.Clients)}
	for c := 0; c < cfg.Clients; c++ {
		rng := rand.New(rand.NewSource(splitmix(cfg.Seed, uint64(c)+1)))
		zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.HotPool-1))
		reqs := make([]Request, 0, cfg.Requests)
		queries := 0
		for i := 0; i < cfg.Requests; i++ {
			roll := rng.Intn(10000)
			var req Request
			switch {
			case roll < cfg.Mix.Explain:
				req = hotPool[zipf.Uint64()]
				req.Op = OpExplain
				req.Sample = false
			case roll < cfg.Mix.Explain+cfg.Mix.Analyze:
				req = hotPool[zipf.Uint64()]
				req.Op = OpAnalyze
				req.Sample = false
			case roll < cfg.Mix.Explain+cfg.Mix.Analyze+cfg.Mix.Reregister:
				req = Request{Op: OpReregister, Template: -1,
					Arg: cfg.Wrappers[rng.Intn(len(cfg.Wrappers))]}
			case roll < cfg.Mix.total():
				// Perturb one wrapper's link: latency from a small
				// deterministic menu, bandwidth fixed. The perturbation
				// changes cost estimates and virtual transfer times, never
				// results.
				lat := []int{2, 10, 40, 120}[rng.Intn(4)]
				req = Request{Op: OpSetLink, Template: -1,
					Arg: fmt.Sprintf("%s %d 0.0005", cfg.Wrappers[rng.Intn(len(cfg.Wrappers))], lat)}
			default:
				if rng.Float64() < cfg.HotRatio {
					req = hotPool[zipf.Uint64()]
				} else {
					t := rng.Intn(len(cfg.Templates))
					tpl := cfg.Templates[t]
					req = Request{
						Op:       OpQuery,
						SQL:      tpl.Instantiate(tpl.ArgLo + rng.Intn(max(1, tpl.ArgHi-tpl.ArgLo))),
						Template: t,
					}
				}
				queries++
				if cfg.SampleEvery > 0 && queries%cfg.SampleEvery == 0 {
					req.Sample = true
				}
			}
			reqs = append(reqs, req)
		}
		s.Clients[c] = reqs
	}
	return s, nil
}

// Digest is a stable FNV-1a fingerprint of the whole schedule — two
// schedules are bit-identical iff their digests match (up to hash
// collisions), which is what the determinism gate asserts without
// storing golden schedules.
func (s *Schedule) Digest() uint64 {
	h := fnv.New64a()
	for ci, c := range s.Clients {
		fmt.Fprintf(h, "client %d\n", ci)
		for _, r := range c {
			fmt.Fprintf(h, "%s|%s|%s|%d|%t|%t\n", r.Op, r.SQL, r.Arg, r.Template, r.Hot, r.Sample)
		}
	}
	return h.Sum64()
}

// splitmix derives a well-mixed 63-bit seed from (seed, stream) — the
// SplitMix64 finalizer, so adjacent client indices yield uncorrelated
// PRNG streams.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}
