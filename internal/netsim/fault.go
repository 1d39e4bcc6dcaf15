package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// FaultKind classifies one injected failure.
type FaultKind uint8

// The failure modes of the simulator. They mirror the conditions the
// paper's mediator must absorb from autonomous sources: a wrapper that is
// slow (delay), transiently failing (error), flaky at the transport level
// (drop), or gone entirely (unavailable).
const (
	// FaultNone injects nothing; the request is served normally.
	FaultNone FaultKind = iota
	// FaultDelay serves the request after adding virtual latency.
	FaultDelay
	// FaultError answers the request with a transient error response.
	FaultError
	// FaultDrop cuts the connection mid-response: the server writes a
	// truncated frame and closes, leaving the client mid-stream.
	FaultDrop
	// FaultUnavailable refuses the request permanently: the wrapper has
	// failed and will not come back for the rest of the run.
	FaultUnavailable
)

// String renders the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDelay:
		return "delay"
	case FaultError:
		return "error"
	case FaultDrop:
		return "drop"
	case FaultUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// Fault is the injection decision for one request.
type Fault struct {
	Kind FaultKind
	// DelayMS is additional virtual latency to charge before serving;
	// it applies to every kind (a dropped request may burn time first).
	DelayMS float64
}

// FaultPlan configures the failure behaviour of one wrapper. The zero
// value injects nothing. All randomness is drawn from a PRNG seeded with
// Seed, so a plan replays the exact same fault sequence on every run:
// experiments under failure stay as reproducible as the fault-free ones.
type FaultPlan struct {
	// DropProb is the per-request probability of cutting the connection
	// mid-response (truncated frame, then close).
	DropProb float64
	// ErrorProb is the per-request probability of answering with a
	// transient (retryable) error response.
	ErrorProb float64
	// DelayMS is fixed virtual latency added to every request.
	DelayMS float64
	// JitterMS adds uniformly distributed extra latency in [0, JitterMS).
	JitterMS float64
	// UnavailableAfter, when positive, fails the wrapper permanently
	// after that many requests have been observed.
	UnavailableAfter int
	// Seed seeds the plan's PRNG; plans with equal seeds and parameters
	// inject identical sequences.
	Seed int64
}

// IsZero reports whether the plan injects nothing.
func (p FaultPlan) IsZero() bool {
	return p.DropProb == 0 && p.ErrorProb == 0 && p.DelayMS == 0 &&
		p.JitterMS == 0 && p.UnavailableAfter == 0
}

// String renders the plan in the spec syntax ParseFaultSpec accepts.
func (p FaultPlan) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("drop", p.DropProb)
	add("error", p.ErrorProb)
	add("delay", p.DelayMS)
	add("jitter", p.JitterMS)
	if p.UnavailableAfter > 0 {
		parts = append(parts, "downafter="+strconv.Itoa(p.UnavailableAfter))
	}
	if p.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(p.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// Injector applies a FaultPlan request by request. It is safe for
// concurrent use: the wrapper server consults it from every connection
// goroutine. Decisions are serialized under a lock, so the fault sequence
// is a deterministic function of (plan, seed, request order).
type Injector struct {
	mu   sync.Mutex
	plan FaultPlan
	rng  *rand.Rand
	n    int  // requests observed
	down bool // latched by UnavailableAfter
}

// NewInjector builds an injector for one plan. A zero plan yields an
// injector that always reports FaultNone; nil receivers are also valid
// (Next on a nil Injector is FaultNone), so fault-free paths need no
// special casing.
func NewInjector(plan FaultPlan) *Injector {
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Next decides the fault for the next request.
func (in *Injector) Next() Fault {
	if in == nil {
		return Fault{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.n++
	if in.down || (in.plan.UnavailableAfter > 0 && in.n > in.plan.UnavailableAfter) {
		in.down = true
		return Fault{Kind: FaultUnavailable}
	}
	f := Fault{Kind: FaultNone, DelayMS: in.plan.DelayMS}
	if in.plan.JitterMS > 0 {
		f.DelayMS += in.rng.Float64() * in.plan.JitterMS
	}
	// A single roll decides drop vs error so the two probabilities
	// partition [0,1) and never mask each other.
	if in.plan.DropProb > 0 || in.plan.ErrorProb > 0 {
		r := in.rng.Float64()
		switch {
		case r < in.plan.DropProb:
			f.Kind = FaultDrop
		case r < in.plan.DropProb+in.plan.ErrorProb:
			f.Kind = FaultError
		}
	}
	return f
}

// Requests reports how many requests the injector has decided on.
func (in *Injector) Requests() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// FaultSet maps wrapper names to their fault plans; the key "*" applies
// to every wrapper without an explicit plan.
type FaultSet map[string]FaultPlan

// PlanFor returns the plan of one wrapper (the "*" plan when no explicit
// entry exists). ok is false when no plan applies.
func (s FaultSet) PlanFor(wrapper string) (FaultPlan, bool) {
	if s == nil {
		return FaultPlan{}, false
	}
	if p, ok := s[wrapper]; ok {
		return p, true
	}
	p, ok := s["*"]
	return p, ok
}

// String renders the set in the spec syntax, wrappers sorted for
// determinism.
func (s FaultSet) String() string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, n+":"+s[n].String())
	}
	return strings.Join(parts, ";")
}

// ParseFaultSpec parses a fault specification of the form
//
//	wrapper:key=value,key=value;wrapper2:...
//
// with keys drop, error (probabilities in [0,1]), delay, jitter
// (virtual milliseconds), downafter (request count) and seed. The
// wrapper name "*" matches any wrapper. An empty spec yields a nil set.
func ParseFaultSpec(spec string) (FaultSet, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	set := make(FaultSet)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, body, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("netsim: fault spec entry %q needs wrapper:settings", entry)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("netsim: fault spec entry %q has an empty wrapper name", entry)
		}
		if _, dup := set[name]; dup {
			return nil, fmt.Errorf("netsim: duplicate fault plan for wrapper %q", name)
		}
		var plan FaultPlan
		for _, kv := range strings.Split(body, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("netsim: fault setting %q needs key=value", kv)
			}
			key = strings.ToLower(strings.TrimSpace(key))
			val = strings.TrimSpace(val)
			switch key {
			case "downafter", "seed":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("netsim: fault setting %s=%q: want a non-negative integer", key, val)
				}
				if key == "seed" {
					plan.Seed = n
				} else {
					plan.UnavailableAfter = int(n)
				}
			default:
				f, err := strconv.ParseFloat(val, 64)
				if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
					return nil, fmt.Errorf("netsim: fault setting %s=%q: want a finite non-negative number", key, val)
				}
				switch key {
				case "drop":
					plan.DropProb = f
				case "error":
					plan.ErrorProb = f
				case "delay":
					plan.DelayMS = f
				case "jitter":
					plan.JitterMS = f
				default:
					return nil, fmt.Errorf("netsim: unknown fault setting %q", key)
				}
			}
		}
		if plan.DropProb > 1 || plan.ErrorProb > 1 || plan.DropProb+plan.ErrorProb > 1 {
			return nil, fmt.Errorf("netsim: fault plan for %q: drop+error probabilities exceed 1", name)
		}
		set[name] = plan
	}
	if len(set) == 0 {
		return nil, nil
	}
	return set, nil
}
