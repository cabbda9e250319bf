package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles prints, for every workload and end-to-end metric the two
// -out files share, how much worse b's median is than a's as a share of a's
// median, against the metric's bound. Each side's own run-to-run spread is
// the distance between its quartiles over its median; where either exceeds
// the bound the row is "unresolved", never "ok". Reports whether any row
// regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readOutFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readOutFile(pathB)
	if err != nil {
		return false, err
	}
	collect := func(f outFile, workload, metric string) []float64 {
		var vals []float64
		for _, r := range f.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				vals = append(vals, m.Value)
			}
		}
		return vals
	}
	spread := func(vals []float64) float64 {
		q1, q3 := quartiles(vals)
		if med := median(vals); med > 0 {
			return (q3 - q1) / med
		}
		return 0
	}
	fmt.Fprintf(w, "%-16s %-18s %5s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "runs", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, spec := range workloads {
		for _, m := range endToEnd {
			va, vb := collect(a, spec.Name, m.Name), collect(b, spec.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-18s %2d/%-2d %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				spec.Name, m.Name, len(va), len(vb), ma, mb, 100*worse, 100*sp, 100*m.Bound, verdict)
		}
	}
	return regressed, nil
}
