package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict of one workload x end-to-end metric, b against baseline a.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much worse b is than a as a share of a, signed so that
// positive means worse whichever direction is better.
func worsening(m *metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / a
	if m.Better == "higher" {
		rel = -rel
	}
	return rel
}

// judge applies the benchmark's rule: beyond the bound is worse, unless either
// side's own run-to-run spread (interquartile distance over median) is wider
// than the bound, in which case the difference cannot be told from noise.
func judge(m *metricSpec, a, b metricSummary) string {
	spreadOf := func(s metricSummary) float64 { return ratio(s.Q3-s.Q1, s.Median) }
	switch {
	case spreadOf(a) > m.Bound || spreadOf(b) > m.Bound:
		return verdictUnresolved
	case worsening(m, a.Median, b.Median) > m.Bound:
		return verdictWorse
	}
	return verdictOK
}

func readResultFile(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Benchmark != "rdmadl-bench" || f.Summary == nil {
		return nil, fmt.Errorf("%s: not an rdmadl-bench result file", path)
	}
	return &f, nil
}

// compareFiles prints the comparison and reports whether b is acceptable:
// no metric worse, no rise in the failed share.
func compareFiles(w io.Writer, a, b *resultFile) bool {
	fmt.Fprintf(w, "# a: rev=%s seed=%d seconds=%g   b: rev=%s seed=%d seconds=%g\n",
		a.Provenance.GitRev, a.Provenance.Seed, a.Provenance.Seconds,
		b.Provenance.GitRev, b.Provenance.Seed, b.Provenance.Seconds)
	if a.Provenance.NProc != b.Provenance.NProc || a.Provenance.CPUModel != b.Provenance.CPUModel ||
		a.Provenance.Seconds != b.Provenance.Seconds {
		fmt.Fprintln(w, "# warning: the two files come from different hosts or run lengths; the verdicts compare machines, not code")
	}
	ok := true
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tchange\tbound\tverdict")
	for _, wl := range workloads {
		wa, inA := a.Summary[wl.Name]
		wb, inB := b.Summary[wl.Name]
		if !inA || !inB {
			continue
		}
		for i := range endToEnd {
			m := &endToEnd[i]
			sa, okA := wa.Metrics[m.Name]
			sb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := judge(m, sa, sb)
			if v == verdictWorse {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, sa.Median, sb.Median, m.Unit, 100*ratio(sb.Median-sa.Median, sa.Median), 100*m.Bound, v)
		}
		fa := ratio(float64(wa.Failed), float64(wa.Attempted))
		fb := ratio(float64(wb.Failed), float64(wb.Attempted))
		v := verdictOK
		if fb > fa {
			v, ok = verdictWorse, false
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.6g\t%.6g\t\t\t\t%s\n", wl.Name, fa, fb, v)
	}
	tw.Flush()
	return ok
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: rdmadl-bench compare a.json b.json")
		return 2
	}
	var files [2]*resultFile
	for i, path := range args {
		f, err := readResultFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdmadl-bench: %v\n", err)
			return 2
		}
		files[i] = f
	}
	if !compareFiles(os.Stdout, files[0], files[1]) {
		fmt.Fprintln(os.Stderr, "rdmadl-bench: b is worse than a beyond a bound, or fails more operations")
		return 1
	}
	return 0
}
