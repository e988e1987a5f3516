package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Sizing constants shared by every workload.
const (
	execWorkers   = 2  // per-server scheduler workers, pinned
	kernelWorkers = 2  // process-wide kernel pool, pinned
	maxProcs      = 2  // GOMAXPROCS, pinned: numbers must not depend on the host's core count
	warmupOps     = 20 // untimed operations before every timed window
	rounds        = 5  // fresh launches of every phase per run of a Step-driven workload
)

// setup_s is the median of cold build→launch→init→first op→close cycles. One
// cycle is between 5 and 250 ms depending on the workload and swings by half,
// so cycles repeat until both a count and a time budget — a twentieth of the
// timed window — are met.
const (
	setupMinCycles = 5
	setupMaxCycles = 40
)

// errPathGuard aborts a workload that stopped exercising the path it exists
// to measure; a silently different workload is worse than none.
var errPathGuard = errors.New("path guard")

// runCtx is one workload invocation's parameters.
type runCtx struct {
	seed    int64
	seconds float64
	trace   bool
	// traceOut is where the traced run writes its chrome-trace JSON.
	traceOut string
}

func (c *runCtx) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run. The first four fields are the driver's
// contract; the rest is provenance the suite's result file keeps.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Samples is the per-phase sample count behind each timing.
	Samples map[string]int `json:"samples,omitempty"`
	// Info carries reported-not-gated numbers (tail percentile used,
	// publish-to-served latency on the untraced run, generator lag).
	Info map[string]float64 `json:"info,omitempty"`
	// Notes are human-readable remarks, e.g. the first failures seen.
	Notes []string `json:"notes,omitempty"`
}

func newResult() *result {
	return &result{
		Correct: true,
		Metrics: make(map[string]metricValue),
		Samples: make(map[string]int),
		Info:    make(map[string]float64),
	}
}

// set records a metric by its declared name; an undeclared name is a bug in
// the benchmark, not a runtime condition.
func (r *result) set(name string, v float64) {
	m := findMetric(name)
	if m == nil {
		panic("rdmadl-bench: undeclared metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n operations failed for one reason.
func (r *result) failN(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.Correct = false
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, fmt.Sprintf("%d x ", n)+fmt.Sprintf(format, args...))
	}
}

// fillMissing sets every metric of the list that the run did not produce to 0.
func (r *result) fillMissing(list []metricSpec) {
	for _, m := range list {
		if _, ok := r.Metrics[m.Name]; !ok {
			r.Metrics[m.Name] = metricValue{Value: 0, Unit: m.Unit}
		}
	}
}

// keepOnly drops every metric not in list.
func (r *result) keepOnly(list []metricSpec) {
	keep := make(map[string]bool, len(list))
	for _, m := range list {
		keep[m.Name] = true
	}
	for name := range r.Metrics {
		if !keep[name] {
			delete(r.Metrics, name)
		}
	}
}

// latencyStats folds per-op latencies (ms), one slice per round, into the
// p50/p95 pair. p50 is the median over rounds of each round's median, which a
// disturbance shorter than half the run cannot move; p95 is taken over the
// pooled samples, because one round alone has too few samples beyond it.
func (r *result) latencyStats(phase string, rounds [][]float64) {
	var pooled, medians []float64
	for _, ms := range rounds {
		pooled = append(pooled, ms...)
		medians = append(medians, median(ms))
	}
	s := sortedCopy(pooled)
	r.Samples[phase] = len(s)
	r.set("op_ms_p50", median(medians))
	r.set("op_ms_p95", percentile(s, 95))
	if !tailSupported(len(s), 95) {
		r.Notes = append(r.Notes, fmt.Sprintf("%s: only %d samples, p95 has fewer than %d beyond it", phase, len(s), minBeyond))
	}
	// The highest percentile the sample supports is reported, not gated.
	if p := highestTail(len(s), 95, 99, 99.9); p > 0 {
		r.Info["tail_percentile"] = p
		r.Info["op_ms_tail"] = percentile(s, p)
	}
}

// window measures process CPU and allocation over a span of work.
type window struct {
	t0   time.Time
	cpu0 time.Duration
	mem0 runtime.MemStats

	Wall    time.Duration
	CPU     time.Duration
	Mallocs uint64
	Bytes   uint64
	GCPause time.Duration
}

func startWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem0)
	w.cpu0 = cpuTime()
	w.t0 = time.Now()
	return w
}

func (w *window) end() {
	w.Wall = time.Since(w.t0)
	w.CPU = cpuTime() - w.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.Mallocs = m.Mallocs - w.mem0.Mallocs
	w.Bytes = m.TotalAlloc - w.mem0.TotalAlloc
	w.GCPause = time.Duration(m.PauseTotalNs - w.mem0.PauseTotalNs)
}

// medianSetup runs cold cycles and returns their median wall time in seconds.
func (c *runCtx) medianSetup(cycle func() error) (float64, error) {
	var secs []float64
	begin, budget := time.Now(), c.window()/20
	for i := 0; i < setupMaxCycles && (i < setupMinCycles || time.Since(begin) < budget); i++ {
		start := time.Now()
		if err := cycle(); err != nil {
			return 0, fmt.Errorf("setup cycle %d: %w", i, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		runtime.GC() // the closed cycle's arenas, outside the cycle's timer
	}
	return median(secs), nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
