package main

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
)

// defaultBound applies to end-to-end metrics BENCHMARK.json does not gate
// (the per-class ones that not every workload has).
const defaultBound = 0.10

// compareFiles prints, per workload and end-to-end metric, both files'
// medians, the relative change (positive = worse), the bound, and a verdict:
// "ok", "worse" (B's median worse than A's by more than the bound), or
// "unresolved" (either side's run-to-run spread is wider than the bound, so
// the runs cannot tell). It returns an error if any row is worse.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := untracedValues(pathA)
	if err != nil {
		return err
	}
	b, err := untracedValues(pathB)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tchange\tspread A\tspread B\tbound\tverdict")
	worse := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.name][d.name], b[wl.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			bound, gated := bounds[d.name]
			if !gated {
				bound = defaultBound
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
				if d.better == "higher" {
					change = -change
				}
			} else if mb != 0 {
				change = 1 // from zero to something: only failed_share can, and that is worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			// setup_s is judged on its medians alone, as the driver does.
			case d.name != "setup_s" && (sa > bound || sb > bound):
				verdict = "unresolved"
			case change > bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.name, d.name, d.unit, ma, mb, 100*change, 100*sa, 100*sb, 100*bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}

// spread is the distance between the first and third quartile as a share of
// the median: the driver's measure of run-to-run noise.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// untracedValues collects, per workload and metric, the values of every
// untraced run in a results file.
func untracedValues(path string) (map[string]map[string][]float64, error) {
	f, err := readResults(path)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, run := range f.Runs {
		for _, res := range run.Results {
			if res.Trace {
				continue
			}
			if out[res.Workload] == nil {
				out[res.Workload] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				if !v.NA {
					out[res.Workload][name] = append(out[res.Workload][name], v.V)
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no untraced runs")
	}
	return out, nil
}
