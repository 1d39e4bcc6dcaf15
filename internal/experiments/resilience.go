package experiments

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"disco/internal/mediator"
	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// ResilienceRow summarizes one fault scenario: a fixed query workload run
// against a wrapper served through that scenario's fault injector.
type ResilienceRow struct {
	Scenario string
	Plan     string // spec syntax of the injected plan
	Queries  int
	// Answered counts queries that returned their full, correct answer;
	// Partial counts degraded (partial) answers. Their sum is Queries —
	// under every scenario each query terminates with one or the other,
	// never an error, hang, or wrong rows.
	Answered int
	Partial  int
	// Retries/Redials are the transport's self-healing interventions.
	Retries int
	Redials int
	// VirtualMS is the workload's total virtual time: injected delays and
	// retry backoff make it grow against the baseline.
	VirtualMS float64
}

// ResilienceResult holds the fault-tolerance study.
type ResilienceResult struct {
	Rows []ResilienceRow
}

// Table renders the study.
func (r *ResilienceResult) Table() string {
	var b strings.Builder
	b.WriteString("Resilience — fixed workload under injected wrapper faults\n")
	fmt.Fprintf(&b, "%-12s %-34s %8s %9s %8s %8s %8s %12s\n",
		"scenario", "plan", "queries", "answered", "partial", "retries", "redials", "virtual-ms")
	for _, row := range r.Rows {
		plan := row.Plan
		if plan == "" {
			plan = "-"
		}
		fmt.Fprintf(&b, "%-12s %-34s %8d %9d %8d %8d %8d %12.1f\n",
			row.Scenario, plan, row.Queries, row.Answered, row.Partial,
			row.Retries, row.Redials, row.VirtualMS)
	}
	return b.String()
}

// DefaultFaultScenarios is the matrix the resilience experiment runs when
// no -faults spec is given: the baseline plus one scenario per failure
// mode, all seeded for reproducibility.
func DefaultFaultScenarios() map[string]netsim.FaultPlan {
	return map[string]netsim.FaultPlan{
		"baseline": {},
		"drop":     {DropProb: 0.25, Seed: 7},
		"error":    {ErrorProb: 0.3, Seed: 3},
		"delay":    {DelayMS: 50, JitterMS: 10, Seed: 1},
		"outage":   {UnavailableAfter: 4},
	}
}

// Resilience runs the fault-tolerance study: for every scenario, a remote
// wrapper is served through the scenario's injector and a fixed query
// workload is pushed through a fresh mediator. Scenarios may come from a
// -faults spec (each named wrapper becomes one scenario; "*" is renamed
// "any"); nil runs DefaultFaultScenarios.
func Resilience(scenarios map[string]netsim.FaultPlan) (*ResilienceResult, error) {
	if len(scenarios) == 0 {
		scenarios = DefaultFaultScenarios()
	}
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)

	out := &ResilienceResult{}
	for _, name := range names {
		row, err := runResilienceScenario(name, scenarios[name])
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

// resilienceWorkload is the fixed query mix; every query's full answer is
// known so degraded answers are detectable.
var resilienceWorkload = []struct {
	sql  string
	rows int
}{
	{`SELECT pid FROM Parts WHERE pid < 20`, 20},
	{`SELECT pid FROM Parts WHERE pid = 77`, 1},
	{`SELECT pid FROM Parts WHERE pid < 5`, 5},
	{`SELECT pid FROM Parts WHERE pid < 40`, 40},
	{`SELECT pid FROM Parts WHERE pid = 321`, 1},
	{`SELECT pid FROM Parts WHERE pid < 10`, 10},
}

func runResilienceScenario(name string, plan netsim.FaultPlan) (*ResilienceRow, error) {
	med, err := mediator.New(mediator.DefaultConfig())
	if err != nil {
		return nil, err
	}

	store := objstore.Open(objstore.DefaultConfig())
	parts, err := store.CreateCollection("Parts", types.NewSchema(
		types.Field{Name: "pid", Collection: "Parts", Type: types.KindInt},
	), 48)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 500; i++ {
		parts.Insert(types.Row{types.Int(int64(i))})
	}
	if err := parts.CreateIndex("pid", true); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go wrapper.ServeFaulty(ln, wrapper.NewObjWrapper("remote", store), netsim.NewInjector(plan))

	policy := wrapper.DefaultRetryPolicy()
	policy.IOTimeout = 2 * time.Second
	rw, err := wrapper.DialRemotePolicy(ln.Addr().String(), policy)
	if err != nil {
		return nil, err
	}
	defer rw.Close()
	if err := med.Register(rw); err != nil {
		return nil, err
	}

	row := &ResilienceRow{Scenario: name, Plan: plan.String(), Queries: len(resilienceWorkload)}
	for _, q := range resilienceWorkload {
		res, err := med.Query(q.sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.sql, err)
		}
		row.VirtualMS += res.ElapsedMS
		switch {
		case res.Partial:
			row.Partial++
		case len(res.Rows) == q.rows:
			row.Answered++
		default:
			return nil, fmt.Errorf("%s: %d rows, want %d (non-partial answers must be exact)",
				q.sql, len(res.Rows), q.rows)
		}
	}
	st := rw.Stats()
	row.Retries, row.Redials = st.Retries, st.Redials
	return row, nil
}

// ScenariosFromSpec converts a parsed -faults spec into named scenarios
// for Resilience ("*" becomes "any").
func ScenariosFromSpec(set netsim.FaultSet) map[string]netsim.FaultPlan {
	if len(set) == 0 {
		return nil
	}
	out := make(map[string]netsim.FaultPlan, len(set))
	for name, plan := range set {
		if name == "*" {
			name = "any"
		}
		out[name] = plan
	}
	return out
}
