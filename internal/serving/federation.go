// Package serving hosts the discod server machinery: the demo
// federation assembly, the per-connection protocol loop with graceful
// shutdown, and the administrative ops (stats scraping, live wrapper
// re-registration, netsim link perturbation) the soak harness drives.
// cmd/discod is a thin flag wrapper over this package; the loadgen soak
// tests and BenchmarkSoakServing run it in-process against real sockets.
package serving

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"disco/internal/feedback"
	"disco/internal/filestore"
	"disco/internal/mediator"
	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/oo7"
	"disco/internal/relstore"
	"disco/internal/resultcache"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// Options configure a demo-federation deployment.
type Options struct {
	// Parts is the OO7 AtomicParts cardinality; 0 uses the paper scale
	// (14000).
	Parts int
	// Feedback enables the execution-feedback loop.
	Feedback bool
	// FeedbackSnapshot names a JSON file persisting learned corrections
	// across restarts (requires Feedback).
	FeedbackSnapshot string
	// MaxInFlight bounds concurrently executing queries (0 = unlimited).
	MaxInFlight int
	// QueueTimeout is the admission queue wait before shedding.
	QueueTimeout time.Duration
	// PlanCacheSize overrides the prepared-plan cache bound (0 default,
	// negative disables).
	PlanCacheSize int
	// ResultCache configures the semantic result cache (off by default;
	// see mediator.Config.ResultCache).
	ResultCache resultcache.Config
	// ExecMemBytes is the spill budget for mediator-side hash joins and
	// aggregations (see mediator.Config.ExecMemBytes; 0 = never spill).
	ExecMemBytes int64
	// ExecSpillDir overrides where spill partitions are written.
	ExecSpillDir string
}

// RegisterFlags declares the serving flags discod and discoload share on
// fs, bound to the returned Options; parts defaults to defaultParts.
// Callers read the Options after fs.Parse.
func RegisterFlags(fs *flag.FlagSet, defaultParts int) *Options {
	o := &Options{}
	fs.IntVar(&o.Parts, "parts", defaultParts, "OO7 AtomicParts cardinality")
	fs.BoolVar(&o.Feedback, "feedback", true, "absorb execution feedback into the cost model")
	fs.IntVar(&o.MaxInFlight, "max-inflight", 32, "maximum concurrently executing queries (0 = unlimited)")
	fs.DurationVar(&o.QueueTimeout, "queue-timeout", time.Second, "admission queue wait before shedding a query")
	fs.BoolVar(&o.ResultCache.Enabled, "result-cache", false, "enable the semantic result cache")
	fs.Int64Var(&o.ResultCache.MaxBytes, "result-cache-bytes", resultcache.DefaultMaxBytes, "result cache byte budget")
	fs.Int64Var(&o.ExecMemBytes, "exec-mem-bytes", 0, "spill budget for mediator hash joins/aggregations (0 = never spill)")
	return o
}

// Federation is one assembled demo deployment: the mediator plus the
// wrapper handles kept for administrative re-registration. The demo
// federation is the paper's three-source setup — the OO7 object
// database, a relational supplier catalog, and a flat file of
// inspection notes.
type Federation struct {
	Med *mediator.Mediator
	// wrappers holds the registered wrapper handles by name. Read-only
	// after construction; re-registration goes through the mediator's
	// own locking.
	wrappers map[string]wrapper.Wrapper
}

// NewDemoFederation assembles and registers the demo federation.
func NewDemoFederation(opts Options) (*Federation, error) {
	if opts.Parts == 0 {
		opts.Parts = 14000
	}
	cfg := mediator.DefaultConfig()
	cfg.Feedback = opts.Feedback
	if opts.FeedbackSnapshot != "" {
		cfg.FeedbackStore = feedback.NewFileStore(opts.FeedbackSnapshot)
	}
	cfg.MaxInFlight = opts.MaxInFlight
	cfg.AdmissionTimeout = opts.QueueTimeout
	cfg.PlanCacheSize = opts.PlanCacheSize
	cfg.ResultCache = opts.ResultCache
	cfg.ExecMemBytes = opts.ExecMemBytes
	cfg.ExecSpillDir = opts.ExecSpillDir
	m, err := mediator.New(cfg)
	if err != nil {
		return nil, err
	}
	f := &Federation{Med: m, wrappers: make(map[string]wrapper.Wrapper)}

	// OO7 object database.
	scfg := objstore.DefaultConfig()
	scfg.BufferPages = opts.Parts/70 + 64
	ostore := objstore.Open(scfg)
	scale := oo7.PaperScale()
	scale.AtomicParts = opts.Parts
	if err := oo7.Generate(ostore, scale, 1); err != nil {
		return nil, err
	}
	if err := f.register(wrapper.NewObjWrapper("oo7", ostore)); err != nil {
		return nil, err
	}

	// Relational suppliers.
	rstore := relstore.Open(relstore.DefaultConfig())
	sup, err := rstore.CreateTable("Suppliers", types.NewSchema(
		types.Field{Collection: "Suppliers", Name: "sid", Type: types.KindInt},
		types.Field{Collection: "Suppliers", Name: "sname", Type: types.KindString},
		types.Field{Collection: "Suppliers", Name: "region", Type: types.KindInt},
	), 64)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 500; i++ {
		if err := sup.Insert(types.Row{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("supplier-%03d", i)),
			types.Int(int64(i % 12)),
		}); err != nil {
			return nil, err
		}
	}
	if err := sup.CreateHashIndex("sid"); err != nil {
		return nil, err
	}
	if err := f.register(wrapper.NewRelWrapper("suppliers", rstore)); err != nil {
		return nil, err
	}

	// Flat-file inspection notes.
	fstore := filestore.Open(filestore.DefaultConfig())
	notes, err := fstore.CreateFile("Inspections", types.NewSchema(
		types.Field{Collection: "Inspections", Name: "part", Type: types.KindInt},
		types.Field{Collection: "Inspections", Name: "passed", Type: types.KindBool},
	))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 1000; i++ {
		if err := notes.Append(types.Row{
			types.Int(int64(i * 17 % opts.Parts)),
			types.Bool(i%7 != 0),
		}); err != nil {
			return nil, err
		}
	}
	if err := f.register(wrapper.NewFileWrapper("inspections", fstore)); err != nil {
		return nil, err
	}

	return f, nil
}

func (f *Federation) register(w wrapper.Wrapper) error {
	if err := f.Med.Register(w); err != nil {
		return err
	}
	f.wrappers[w.Name()] = w
	return nil
}

// Reregister re-runs the registration phase for a wrapper already in the
// federation — the paper's administrative re-registration interface.
// The wrapper's statistics are collected while queries keep being
// served; only installing them takes the mediator's write lock:
// in-flight queries drain, the catalog epoch bumps, and every cached
// plan is invalidated. The soak harness fires these mid-run to prove
// serving survives live catalog churn.
func (f *Federation) Reregister(name string) error {
	w, ok := f.wrappers[name]
	if !ok {
		return fmt.Errorf("serving: unknown wrapper %q", name)
	}
	return f.Med.Register(w)
}

// SetLink applies a netsim link perturbation from a "wrapper latencyMS
// perByteMS" spec: the communication model under the named wrapper
// changes live, shifting both cost estimates and virtual transfer
// times — results are unaffected, plans may change.
func (f *Federation) SetLink(spec string) error {
	fields := strings.Fields(spec)
	if len(fields) != 3 {
		return fmt.Errorf("serving: setlink wants \"wrapper latencyMS perByteMS\", got %q", spec)
	}
	if _, ok := f.wrappers[fields[0]]; !ok {
		return fmt.Errorf("serving: unknown wrapper %q", fields[0])
	}
	lat, err := strconv.ParseFloat(fields[1], 64)
	if err != nil || lat < 0 {
		return fmt.Errorf("serving: bad latency %q", fields[1])
	}
	perByte, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || perByte < 0 {
		return fmt.Errorf("serving: bad per-byte cost %q", fields[2])
	}
	f.Med.Net.SetLink(fields[0], netsim.Link{LatencyMS: lat, PerByteMS: perByte})
	return nil
}
