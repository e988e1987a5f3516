package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

type suiteOpts struct {
	seed    int64
	seconds float64
	trace   bool
	repeat  int
	out     string
}

// suiteRun is one child-process run of one workload.
type suiteRun struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Repeat   int     `json:"repeat"`
	Result   *result `json:"result"`
}

// metricSummary is a metric's spread over the suite's repeats.
type metricSummary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type workloadSummary struct {
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricSummary `json:"metrics"`
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Benchmark  string                     `json:"benchmark"`
	Provenance provenance                 `json:"provenance"`
	Runs       []suiteRun                 `json:"runs"`
	Summary    map[string]workloadSummary `json:"summary"`
}

// runChild runs one workload in a child process of this binary and decodes
// the full result from the last line of its standard output.
func runChild(name string, o suiteOpts, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace, "--full-json")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: decoding result line: %w", name, err)
	}
	return &res, nil
}

func summarize(runs []suiteRun) map[string]workloadSummary {
	values := make(map[string]map[string][]float64)
	out := make(map[string]workloadSummary)
	for _, r := range runs {
		ws, ok := out[r.Workload]
		if !ok {
			ws = workloadSummary{Metrics: make(map[string]metricSummary)}
			values[r.Workload] = make(map[string][]float64)
		}
		if !r.Traced {
			ws.Attempted += r.Result.Attempted
			ws.Failed += r.Result.Failed
		}
		out[r.Workload] = ws
		for name, m := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	for wl, byMetric := range values {
		for name, v := range byMetric {
			q1, q2, q3 := quartiles(v)
			out[wl].Metrics[name] = metricSummary{Unit: findMetric(name).Unit, N: len(v), Median: q2, Q1: q1, Q3: q3}
		}
	}
	return out
}

func suiteMain(o suiteOpts) int {
	if o.repeat < 1 {
		o.repeat = 1
	}
	file := resultFile{Benchmark: "rdmadl-bench", Provenance: newProvenance(o.seed, o.seconds)}
	failed := false
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range workloads {
			modes := []bool{false}
			if o.trace {
				modes = append(modes, true)
			}
			for _, traced := range modes {
				fmt.Fprintf(os.Stderr, "== %s (repeat %d/%d, traced=%v)\n", w.Name, rep+1, o.repeat, traced)
				res, err := runChild(w.Name, o, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "rdmadl-bench: %v\n", err)
					return 1
				}
				if !res.Correct {
					failed = true
				}
				file.Runs = append(file.Runs, suiteRun{Workload: w.Name, Traced: traced, Repeat: rep, Result: res})
			}
		}
	}
	file.Summary = summarize(file.Runs)
	printSummary(os.Stdout, &file)
	if o.out != "" {
		buf, err := json.MarshalIndent(&file, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdmadl-bench: writing %s: %v\n", o.out, err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "rdmadl-bench: at least one workload produced wrong output or failed operations")
		return 1
	}
	return 0
}

// printResult prints one run: every metric by name with its unit.
func printResult(w io.Writer, name string, ctx *runCtx, res *result) {
	p := newProvenance(ctx.seed, ctx.seconds)
	fmt.Fprintf(w, "# rdmadl-bench %s seed=%d seconds=%g traced=%v rev=%s %s nproc=%d GOMAXPROCS=%d cpu=%q\n",
		name, p.Seed, p.Seconds, ctx.trace, p.GitRev, p.GoVersion, p.NProc, p.GOMAXPROCS, p.CPUModel)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	list := endToEnd
	if ctx.trace {
		list = perLayer
	}
	for _, m := range list {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\n", m.Name, v.Value, v.Unit)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v samples=%v\n", res.Attempted, res.Failed, res.Correct, res.Samples)
	for _, k := range sortedKeys(res.Info) {
		fmt.Fprintf(w, "info %s=%.6g\n", k, res.Info[k])
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func printSummary(w io.Writer, f *resultFile) {
	p := f.Provenance
	fmt.Fprintf(w, "# rdmadl-bench suite seed=%d seconds=%g rev=%s %s nproc=%d GOMAXPROCS=%d cpu=%q\n",
		p.Seed, p.Seconds, p.GitRev, p.GoVersion, p.NProc, p.GOMAXPROCS, p.CPUModel)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tunit\tn")
	for _, wl := range workloads {
		ws, ok := f.Summary[wl.Name]
		if !ok {
			continue
		}
		for _, list := range [][]metricSpec{endToEnd, perLayer} {
			for _, m := range list {
				if s, ok := ws.Metrics[m.Name]; ok {
					fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%s\t%d\n", wl.Name, m.Name, s.Median, s.Q1, s.Q3, s.Unit, s.N)
				}
			}
		}
		fmt.Fprintf(tw, "%s\tattempted/failed\t%d\t%d\t\t\t\n", wl.Name, ws.Attempted, ws.Failed)
	}
	tw.Flush()
}
