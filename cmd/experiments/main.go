// Command experiments regenerates the paper's evaluation artifacts: the
// Figure 12 index-scan study (E1), its error summary (E2), and the
// ablation tables E3-E7 of DESIGN.md. Every run is deterministic.
//
// Usage:
//
//	experiments [-exp all|fig12|planquality|ruleoverhead|history|pruning|joincross|feedback|resilience] [-scale N]
//
// -scale sets the AtomicParts cardinality (default: the paper's 70000;
// use a smaller value like 14000 for quick runs). -faults feeds the
// resilience study custom fault scenarios in netsim.ParseFaultSpec syntax
// (e.g. "flaky:drop=0.3,seed=7;slow:delay=100"); without it the study
// runs the built-in matrix.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"disco/internal/experiments"
	"disco/internal/netsim"
	"disco/internal/oo7"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig12, planquality, ruleoverhead, history, pruning, joincross, clustering, oo7suite, feedback, resilience")
	scaleN := flag.Int("scale", 70000, "AtomicParts cardinality (70000 = paper scale)")
	csv := flag.Bool("csv", false, "emit fig12 as CSV instead of a table (for plotting)")
	faults := flag.String("faults", "", "fault scenarios for -exp resilience (wrapper:drop=0.1,delay=50,...;... syntax)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file when the run completes")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	faultSet, err := netsim.ParseFaultSpec(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -faults: %v\n", err)
		os.Exit(1)
	}

	scale := oo7.PaperScale()
	scale.AtomicParts = *scaleN

	run := func(name string, fn func() (fmt.Stringer, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		out, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	run("fig12", func() (fmt.Stringer, error) {
		r, err := experiments.Figure12(scale, nil, nil)
		if err == nil && *csv {
			return csvFig12{r}, nil
		}
		return tbl{r}, err
	})
	run("planquality", func() (fmt.Stringer, error) {
		r, err := experiments.PlanQuality(scale)
		return tbl{r}, err
	})
	run("ruleoverhead", func() (fmt.Stringer, error) {
		r, err := experiments.RuleOverhead(nil, 0)
		return tbl{r}, err
	})
	run("history", func() (fmt.Stringer, error) {
		r, err := experiments.History(scale)
		return tbl{r}, err
	})
	run("pruning", func() (fmt.Stringer, error) {
		r, err := experiments.Pruning()
		return tbl{r}, err
	})
	run("joincross", func() (fmt.Stringer, error) {
		r, err := experiments.JoinCrossover(nil)
		return tbl{r}, err
	})
	run("clustering", func() (fmt.Stringer, error) {
		r, err := experiments.Clustering(scale, nil)
		return tbl{r}, err
	})
	run("oo7suite", func() (fmt.Stringer, error) {
		r, err := experiments.OO7Suite(scale)
		return tbl{r}, err
	})
	run("feedback", func() (fmt.Stringer, error) {
		r, err := experiments.Feedback()
		return tbl{r}, err
	})
	// The resilience study injects faults by definition, so it only runs
	// when asked for explicitly — "-exp all" keeps producing exactly the
	// fault-free evaluation artifacts.
	if *exp == "resilience" {
		run("resilience", func() (fmt.Stringer, error) {
			r, err := experiments.Resilience(experiments.ScenariosFromSpec(faultSet))
			return tbl{r}, err
		})
	}
}

// csvFig12 renders the figure's series as CSV for external plotting.
type csvFig12 struct {
	r *experiments.Figure12Result
}

func (c csvFig12) String() string {
	var b strings.Builder
	b.WriteString("selectivity,objects,experiment_s,calibration_s,yao_s\n")
	for _, row := range c.r.Rows {
		fmt.Fprintf(&b, "%.3f,%d,%.3f,%.3f,%.3f\n",
			row.Selectivity, row.K, row.ExperimentS, row.CalibrationS, row.YaoS)
	}
	return strings.TrimRight(b.String(), "\n")
}

// tbl adapts the experiment results' Table method to fmt.Stringer.
type tbl struct {
	t interface{ Table() string }
}

func (t tbl) String() string { return t.t.Table() }
