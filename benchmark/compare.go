package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// setStats summarises one (workload, metric) pair of a results file.
type setStats struct {
	n           int
	q1, med, q3 float64
	lo, hi      float64
}

// spread is the distance between the quartiles as a share of the median.
func (s setStats) spread() float64 { return (s.q3 - s.q1) / s.med }

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// collect gathers the untraced values of one metric on one workload.
func (f *resultsFile) collect(workload, name string) (setStats, bool) {
	var xs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			xs = append(xs, v.Value)
		}
	}
	if len(xs) == 0 {
		return setStats{}, false
	}
	s := setStats{n: len(xs), lo: xs[0], hi: xs[0]}
	s.q1, s.med, s.q3 = quartiles(xs)
	for _, x := range xs {
		s.lo, s.hi = min(s.lo, x), max(s.hi, x)
	}
	return s, true
}

// failedOps sums the failed operations of one workload's runs.
func (f *resultsFile) failedOps(workload string) (failed, attempted int) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

// printSpread prints, for a set of several runs, each end-to-end
// metric's median, quartiles and spread next to a third of its bound —
// the steadiness the benchmark aims for.
func printSpread(w io.Writer, f resultsFile) {
	fmt.Fprintf(w, "\nrun-to-run spread over the set (quartile distance / median)\n")
	fmt.Fprintf(w, "%-11s %-8s %3s %12s %12s %12s %8s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound/3")
	for _, def := range workloadDefs {
		for _, m := range endToEnd {
			s, ok := f.collect(def.Name, m.Name)
			if !ok {
				continue
			}
			note := ""
			if m.Name != "setup_s" && s.spread() > m.Bound/3 {
				note = "  > bound/3"
			}
			fmt.Fprintf(w, "%-11s %-8s %3d %12.5g %12.5g %12.5g %7.2f%% %7.2f%%%s\n",
				def.Name, m.Name, s.n, s.q1, s.med, s.q3, 100*s.spread(), 100*m.Bound/3, note)
		}
	}
}

// compareFiles prints, per (end-to-end metric, workload), both sets'
// medians with quartiles, the ratio with its base and a verdict against
// the metric's bound:
//
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  either set's own quartile spread exceeds the bound, and
//	            B's runs are not all better than A's
//	ok          otherwise
//
// Any rise in failed operations is a regression. It reports whether
// anything regressed.
func compareFiles(w io.Writer, pathA, pathB string, force bool) (regressed bool, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A %s: %s\nB %s: %s\n", pathA, a.Host, pathB, b.Host)
	if (a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Host.NProc != b.Host.NProc || a.Host.CPUModel != b.Host.CPUModel) && !force {
		return false, fmt.Errorf("the sets were taken on different hosts or core counts; numbers from different hosts do not compare (-force overrides)")
	}
	fmt.Fprintf(w, "%-11s %-8s %27s %27s %17s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base A)", "bound", "verdict")
	for _, def := range workloadDefs {
		for _, m := range endToEnd {
			sa, okA := a.collect(def.Name, m.Name)
			sb, okB := b.collect(def.Name, m.Name)
			if !okA || !okB {
				continue
			}
			worse := (sb.med - sa.med) / sa.med
			allBetter := sb.hi < sa.lo
			if m.Better == "higher" {
				worse = -worse
				allBetter = sb.lo > sa.hi
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case max(sa.spread(), sb.spread()) > m.Bound && !allBetter:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-11s %-8s %9.4g [%7.4g,%7.4g] %9.4g [%7.4g,%7.4g] %8.4f of %-7.4g %6.0f%%  %s\n",
				def.Name, m.Name, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, sb.med/sa.med, sa.med, 100*m.Bound, verdict)
		}
		fa, na := a.failedOps(def.Name)
		fb, nb := b.failedOps(def.Name)
		if na == 0 || nb == 0 {
			continue // the workload is missing from a set
		}
		fracA, fracB := float64(fa)/float64(na), float64(fb)/float64(nb)
		verdict := "ok"
		if fracB > fracA {
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(w, "%-11s %-8s %27s %27s %17s %7s  %s\n", def.Name, "fail_frac",
			fmt.Sprintf("%d/%d", fa, na), fmt.Sprintf("%d/%d", fb, nb), "", "0%", verdict)
	}
	return regressed, nil
}
