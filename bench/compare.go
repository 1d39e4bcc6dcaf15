package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts of one workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare's table.
type comparison struct {
	Workload string
	Metric   metricDef
	A, B     float64 // medians
	// Worse is the relative change in the metric's bad direction
	// (negative: b is better), with a's median as the base.
	Worse float64
	// Spread is the wider of the two sides' (max-min)/median.
	Spread  float64
	Verdict string
}

// judge compares b's runs of one metric against a's. A change is worse
// when b's median is worse than a's by more than the bound. Where either
// side's own runs spread wider than the bound the pair cannot tell, and
// is unresolved unless every run of b reads better than every run of a.
// A metric without a bound (fail_share) is absolute: any run of b above
// 0 is worse.
func judge(m metricDef, a, b []float64) comparison {
	c := comparison{Metric: m, A: medianFloat(a), B: medianFloat(b)}
	if m.Bound == 0 {
		c.Worse = c.B - c.A
		c.Verdict = verdictOK
		if slices.Max(b) > 0 {
			c.Verdict = verdictWorse
		}
		return c
	}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	c.Worse = sign * (c.B - c.A) / c.A
	spread := func(xs []float64, med float64) float64 {
		return (slices.Max(xs) - slices.Min(xs)) / med
	}
	c.Spread = max(spread(a, c.A), spread(b, c.B))
	allBetter := slices.Max(b) < slices.Min(a)
	if m.Better == "higher" {
		allBetter = slices.Min(b) > slices.Max(a)
	}
	switch {
	case c.Spread > m.Bound && !allBetter:
		c.Verdict = verdictUnresolved
	case c.Worse > m.Bound:
		c.Verdict = verdictWorse
	default:
		c.Verdict = verdictOK
	}
	return c
}

// comparable refuses pairs that were not measured alike: another host
// shape, another run length, or other schedules.
func comparable(a, b *resultFile) error {
	ha, hb := a.Host, b.Host
	ha.Commit, hb.Commit = "", ""
	if ha != hb {
		return fmt.Errorf("host fingerprints differ (%+v against %+v): numbers from different hosts are not comparable", ha, hb)
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("run lengths differ: %d s against %d s", a.Seconds, b.Seconds)
	}
	if len(a.Workloads) != len(b.Workloads) {
		return fmt.Errorf("%d workloads against %d", len(a.Workloads), len(b.Workloads))
	}
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Workload != wb.Workload {
			return fmt.Errorf("workload %d is %s in one file and %s in the other", i, wa.Workload, wb.Workload)
		}
		if wa.ScheduleDigest != wb.ScheduleDigest {
			return fmt.Errorf("%s: schedule digests differ (%s against %s): the clients did not send the same requests",
				wa.Workload, wa.ScheduleDigest, wb.ScheduleDigest)
		}
	}
	return nil
}

func compareResults(a, b *resultFile) ([]comparison, error) {
	if err := comparable(a, b); err != nil {
		return nil, err
	}
	var out []comparison
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, m := range endToEnd {
			ra, rb := wa.Runs[m.Name], wb.Runs[m.Name]
			if len(ra) == 0 || len(rb) == 0 {
				return nil, fmt.Errorf("%s: no runs of %s", wa.Workload, m.Name)
			}
			c := judge(m, ra, rb)
			c.Workload = wa.Workload
			out = append(out, c)
		}
	}
	return out, nil
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change, the bound and the verdict. It fails when any
// metric is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	rows, err := compareResults(a, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (commit %s, %d runs)\nb: %s (commit %s, %d runs)\n", pathA, a.Host.Commit, a.Reps, pathB, b.Host.Commit, b.Reps)
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "spread", "bound", "verdict")
	worse := 0
	for _, c := range rows {
		fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %+8.2f%% %7.2f%% %6.1f%%  %s\n",
			c.Workload, c.Metric.Name, c.A, c.B, 100*c.Worse, 100*c.Spread, 100*c.Metric.Bound, c.Verdict)
		if c.Verdict == verdictWorse {
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}
