// Command rdmadl-bench is the repository's one benchmark: five fixed-duration
// workloads over training, tensor transfer and serving, each verified, each
// reporting the same end-to-end metrics untraced and the per-layer metrics
// traced. See README.md in this directory.
//
//	rdmadl-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one workload in this process; the last stdout line is the result JSON
//	rdmadl-bench [-seed n] [-seconds s] [-trace 1] [-repeat N] [-out file]
//	    the suite: every workload in a child process of its own
//	rdmadl-bench compare a.json b.json
//	    per workload x metric: medians, relative change, ok / worse / unresolved
//	rdmadl-bench golden
//	    print golden.json for the default seed
//	rdmadl-bench spec
//	    print BENCHMARK.json from the in-code metric and workload lists
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

const (
	defaultSeconds = 20
	// smokeSeconds gives every two-phase workload 0.2 s phases.
	smokeSeconds = 0.4
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	// Pinned before anything runs: the numbers must not depend on how many
	// cores the host happens to have.
	runtime.GOMAXPROCS(maxProcs)
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "golden":
			return goldenMain()
		case "spec":
			buf, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdmadl-bench: %v\n", err)
				return 1
			}
			fmt.Printf("%s\n", buf)
			return 0
		}
	}
	fs := flag.NewFlagSet("rdmadl-bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in-process (default: the whole suite, one child process each)")
	seed := fs.Int64("seed", 1, "seed for model init, datasets, payloads, queries and per-version weights")
	seconds := fs.Float64("seconds", defaultSeconds, "timed window per workload")
	traceOn := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end metrics")
	traceOut := fs.String("trace-out", "", "chrome-trace JSON path of a traced run (default .bench_build/trace-<workload>.json)")
	smoke := fs.Bool("smoke", false, "0.2 s phases: checks that every metric is emitted, measures nothing")
	repeat := fs.Int("repeat", 1, "suite only: run the suite N times into one result file")
	out := fs.String("out", "", "suite only: write the result file here")
	fullJSON := fs.Bool("full-json", false, "add sample counts, info and notes to the result line (the suite passes this to its children)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runtime.NumCPU() < maxProcs {
		fmt.Fprintf(os.Stderr, "rdmadl-bench: this host has %d CPU, the benchmark pins GOMAXPROCS=%d and its numbers would mean something else here; refusing to run\n",
			runtime.NumCPU(), maxProcs)
		return 1
	}
	if *smoke {
		*seconds = smokeSeconds
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "rdmadl-bench: -seconds must be positive")
		return 2
	}
	if *workload == "" {
		return suiteMain(suiteOpts{seed: *seed, seconds: *seconds, trace: *traceOn != 0,
			repeat: *repeat, out: *out})
	}
	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "rdmadl-bench: unknown workload %q\n", *workload)
		return 2
	}
	ctx := &runCtx{seed: *seed, seconds: *seconds, trace: *traceOn != 0, traceOut: *traceOut}
	if ctx.traceOut == "" {
		ctx.traceOut = filepath.Join(".bench_build", "trace-"+w.Name+".json")
	}
	res, err := runWorkload(w, ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdmadl-bench: %s: %v\n", w.Name, err)
		return 1
	}
	printResult(os.Stdout, w.Name, ctx, res)
	// The driver's contract: the last stdout line is one JSON object with
	// exactly the keys correct, attempted, failed and metrics.
	if !*fullJSON {
		res.Samples, res.Info, res.Notes = nil, nil, nil
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdmadl-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stdout, "%s\n", line)
	return 0
}

// runWorkload runs one workload and normalises its metric set to the list the
// mode promises: every end-to-end metric untraced, every per-layer metric
// traced.
func runWorkload(w *workloadSpec, ctx *runCtx) (*result, error) {
	res, err := w.run(ctx)
	if err != nil {
		return nil, err
	}
	list := endToEnd
	if ctx.trace {
		list = perLayer
	}
	res.keepOnly(list)
	if ctx.trace {
		res.fillMissing(list) // a layer off this workload's path did no work
	} else {
		for _, m := range list {
			if _, ok := res.Metrics[m.Name]; !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
		}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}
