package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/rdma"
	"repro/internal/trace"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 95, false}, // 9.95 samples beyond
		{200, 95, true},
		{999, 99, false},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := highestTail(150, 95, 99, 99.9); got != 0 {
		t.Errorf("150 samples support p%v, want none", got)
	}
	if got := highestTail(5000, 95, 99, 99.9); got != 99 {
		t.Errorf("5000 samples: highest tail p%v, want p99", got)
	}
	if got := highestTail(20000, 95, 99, 99.9); got != 99.9 {
		t.Errorf("20000 samples: highest tail p%v, want p99.9", got)
	}
}

// The acceptance rule for run-to-run spread is stated in terms of Python's
// statistics.quantiles(v, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 40}, 10, 20, 40},
		{[]float64{7, 9}, 6.5, 8, 9.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	ev := func(id, parent int64, ts, dur float64) linkedEvent {
		return linkedEvent{Event: trace.Event{Phase: "X", TS: ts, Dur: dur}, id: id, parent: parent}
	}
	events := []linkedEvent{
		ev(1, 0, 0, 100),
		ev(2, 1, 10, 20),  // [10,30)
		ev(3, 1, 20, 30),  // [20,50) overlaps 2: union [10,50) = 40
		ev(4, 1, 90, 30),  // [90,120) clipped to the parent: 10
		ev(5, 3, 25, 10),  // grandchild: only its own parent's cover
		ev(6, 0, 200, 50), // childless
	}
	self := selfTimes(events)
	want := map[int64]float64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 50}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestOperatorSpansLinkToTheirStep(t *testing.T) {
	tr := newTracer()
	root := tr.begin(nil, "bench", "root")
	step := tr.beginIter(root, "distributed", "Cluster.Step", 7)
	// What exec records under distributed.Config.Trace.
	tr.rec.Span("worker0", "exec", "MatMul", "mm1_0", map[string]any{"iter": 7})()
	tr.rec.Span("worker0", "exec", "MatMul", "mm1_0", map[string]any{"iter": 8})()
	step.End()
	root.End()
	var linkedToStep, orphan int
	for _, e := range linkEvents(tr.rec.Events()) {
		switch {
		case e.PID == "worker0" && e.parent == step.id:
			linkedToStep++
		case e.PID == "worker0":
			orphan++
		case e.id == step.id && e.parent != root.id:
			t.Errorf("step span's parent = %d, want %d", e.parent, root.id)
		}
	}
	if linkedToStep != 1 || orphan != 1 {
		t.Errorf("operator spans linked to the step: %d, unlinked: %d; want 1 and 1", linkedToStep, orphan)
	}

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf, &events); err != nil {
		t.Fatalf("trace file is not one JSON array: %v", err)
	}
	for _, e := range events {
		args, _ := e["args"].(map[string]any)
		if _, ok := args["parent"]; !ok {
			t.Errorf("event %v has no parent link", e["name"])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.beginIter(nil, "x", "y", 3)
	sp.End()
	if tr.recorder() != nil {
		t.Error("nil tracer returned a recorder")
	}
}

func TestNICTimelineInjectedClock(t *testing.T) {
	now := time.Unix(1000, 0)
	n := newNICTimeline(func() time.Time { return now })
	const size = 1000
	wire := nicPostCost + size*nicNsPerByte*time.Nanosecond
	steps := []struct {
		src, dst string
		want     time.Duration
		why      string
	}{
		{"a", "b", wire, "idle NICs: wire time only"},
		{"a", "b", 2 * wire, "same path queues behind the first"},
		{"c", "d", wire, "disjoint path overlaps"},
		{"a", "c", 3 * wire, "a/tx is busy for two transfers"},
		{"e", "d", 2 * wire, "d/rx is busy for one transfer"},
	}
	for _, s := range steps {
		if got := n.delay(rdma.OpWrite, size, s.src, s.dst); got != s.want {
			t.Errorf("%s->%s delay %v, want %v (%s)", s.src, s.dst, got, s.want, s.why)
		}
	}
	now = now.Add(time.Second)
	if got := n.delay(rdma.OpWrite, size, "a", "b"); got != wire {
		t.Errorf("after the links drained: delay %v, want %v", got, wire)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(buf))
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var got benchmarkJSON
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(buf), want) {
		t.Error("BENCHMARK.json differs from the in-code lists; regenerate with `rdmadl-bench spec > BENCHMARK.json`")
	}

	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", got.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s with unit s, better lower")
	}
	for _, m := range got.PerLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %s is not named <module>.<metric>", m.Name)
		}
	}
	for _, p := range got.Paths {
		if strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q leaves the repository", p)
		}
	}
}

// TestSmoke runs every workload with 0.2 s phases, untraced and traced, and
// asserts that every metric BENCHMARK.json names for the mode is emitted and
// that the outputs verify. It measures nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes about a minute")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(w.Name+"/"+mode, func(t *testing.T) {
				ctx := &runCtx{seed: 1, seconds: smokeSeconds, trace: traced,
					traceOut: filepath.Join(t.TempDir(), "trace.json")}
				res, err := runWorkload(&w, ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				list := endToEnd
				if traced {
					list = perLayer
				}
				if len(res.Metrics) != len(list) {
					t.Errorf("%d metrics emitted, the mode promises %d", len(res.Metrics), len(list))
				}
				for _, m := range list {
					v, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v", m.Name, v.Value)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, v.Value)
					}
				}
				if traced {
					if _, err := os.Stat(ctx.traceOut); err != nil {
						t.Errorf("no chrome trace written: %v", err)
					}
					if strings.HasPrefix(w.Name, "train_") && res.Metrics["exec.balance_err"].Value > 0.05 {
						t.Errorf("exec.balance_err = %v, the step books do not balance", res.Metrics["exec.balance_err"].Value)
					}
				}
				// The driver's line carries exactly four keys.
				res.Samples, res.Info, res.Notes = nil, nil, nil
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil {
					t.Fatal(err)
				}
				if len(keys) != 4 {
					t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
				}
			})
		}
	}
}

func summaryOf(metric string, median, q1, q3 float64, attempted, failed int) map[string]workloadSummary {
	return map[string]workloadSummary{"train_ps_cpu": {
		Attempted: attempted, Failed: failed,
		Metrics: map[string]metricSummary{metric: {Unit: "ms", N: 3, Median: median, Q1: q1, Q3: q3}},
	}}
}

func TestCompareVerdicts(t *testing.T) {
	file := func(s map[string]workloadSummary) *resultFile {
		return &resultFile{Benchmark: "rdmadl-bench", Summary: s}
	}
	base := file(summaryOf("op_ms_p50", 10, 9.9, 10.1, 1000, 0))
	bound := findMetric("op_ms_p50").Bound
	within, beyond := 10*(1+bound/2), 10*(1+bound*1.25)
	cases := []struct {
		name    string
		b       *resultFile
		verdict string
		ok      bool
	}{
		{"within bound", file(summaryOf("op_ms_p50", within, within-0.1, within+0.1, 1000, 0)), verdictOK, true},
		{"better", file(summaryOf("op_ms_p50", 8, 7.9, 8.1, 1000, 0)), verdictOK, true},
		{"beyond bound", file(summaryOf("op_ms_p50", beyond, beyond-0.1, beyond+0.1, 1000, 0)), verdictWorse, false},
		{"noisy", file(summaryOf("op_ms_p50", beyond, beyond*(1-bound), beyond*(1+bound), 1000, 0)), verdictUnresolved, true},
		{"more failures", file(summaryOf("op_ms_p50", 10, 9.9, 10.1, 1000, 3)), verdictOK, false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		ok := compareFiles(&out, base, c.b)
		if ok != c.ok {
			t.Errorf("%s: acceptable = %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "op_ms_p50") {
				line = l
			}
		}
		if !strings.HasSuffix(strings.TrimSpace(line), c.verdict) {
			t.Errorf("%s: verdict line %q, want %s", c.name, line, c.verdict)
		}
	}
	// Higher-is-better metrics worsen downwards.
	m := findMetric("work_per_s")
	if got := worsening(m, 100, 90); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("worsening(work_per_s, 100 -> 90) = %v, want 0.1", got)
	}
}

func TestSummarizeRepeats(t *testing.T) {
	run := func(v float64, attempted, failed int) suiteRun {
		r := newResult()
		r.set("op_ms_p50", v)
		r.Attempted, r.Failed = attempted, failed
		return suiteRun{Workload: "xfer_static", Result: r}
	}
	sum := summarize([]suiteRun{run(3, 100, 0), run(1, 100, 1), run(2, 100, 0)})
	ws := sum["xfer_static"]
	if ws.Attempted != 300 || ws.Failed != 1 {
		t.Errorf("attempted/failed = %d/%d, want 300/1", ws.Attempted, ws.Failed)
	}
	got := ws.Metrics["op_ms_p50"]
	if got.N != 3 || got.Median != 2 || got.Q1 != 1 || got.Q3 != 3 || got.Unit != "ms" {
		t.Errorf("summary = %+v", got)
	}
}
