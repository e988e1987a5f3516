package exec

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Scheduling tests and the §4 ablation: the polling-async mode against the
// two alternatives the paper rejects — blocking a worker thread on the flag
// ("busy loop wasting processor resources") and sleeping between polls
// ("long latency due to periodic sleep").

// flagOp is a recv-like operator whose readiness is an external atomic flag
// (set by the "remote sender").
type flagOp struct {
	flag *atomic.Bool
	mode string // "polling", "blocking", "sleeping"
}

func (f *flagOp) Name() string {
	switch f.mode { // constant names: a per-call concatenation would allocate
	case "polling":
		return "FlagRecv_polling"
	case "blocking":
		return "FlagRecv_blocking"
	}
	return "FlagRecv_" + f.mode
}
func (f *flagOp) InferSig(in []graph.Sig) (graph.Sig, error) {
	return graph.Static(tensor.Float32), nil
}

// Poll is only used in "polling" mode.
func (f *flagOp) Poll(ctx *graph.Context) (bool, error) {
	if f.mode != "polling" {
		return true, nil
	}
	return f.flag.Load(), nil
}

func (f *flagOp) Compute(ctx *graph.Context) error {
	switch f.mode {
	case "blocking":
		for !f.flag.Load() {
		} // burn the worker
	case "sleeping":
		for !f.flag.Load() {
			time.Sleep(500 * time.Microsecond)
		}
	}
	out, err := ctx.Alloc(tensor.Float32, nil)
	if err != nil {
		return err
	}
	out.Float32s()[0] = 1
	ctx.Output = out
	return nil
}

// workOp burns a little CPU, standing in for compute operators that should
// not be starved by polling.
type workOp struct{ executed *atomic.Int64 }

func (w *workOp) Name() string { return "Work" }
func (w *workOp) InferSig(in []graph.Sig) (graph.Sig, error) {
	return graph.Static(tensor.Float32), nil
}
func (w *workOp) Compute(ctx *graph.Context) error {
	s := 0.0
	for i := 0; i < 20000; i++ {
		s += float64(i)
	}
	w.executed.Add(1)
	out, err := ctx.Alloc(tensor.Float32, nil)
	if err != nil {
		return err
	}
	out.Float32s()[0] = float32(s)
	ctx.Output = out
	return nil
}

// buildSchedGraph: nRecv flag operators plus nWork compute operators, all
// independent, plus a sink grouping them.
func buildSchedGraph(t testing.TB, mode string, nRecv, nWork int, flag *atomic.Bool,
	executed *atomic.Int64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	var all []*graph.Node
	for i := 0; i < nRecv; i++ {
		all = append(all, b.AddNode(fmt.Sprintf("recv%d", i), &flagOp{flag: flag, mode: mode}))
	}
	for i := 0; i < nWork; i++ {
		all = append(all, b.AddNode(fmt.Sprintf("work%d", i), &workOp{executed: executed}))
	}
	b.Group("sink", all...)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPollingDoesNotStarveCompute: with as many polling receives as worker
// threads, the compute operators must still finish promptly (under blocking
// receives they could only start after the flag fires).
func TestPollingDoesNotStarveCompute(t *testing.T) {
	var flag atomic.Bool
	var executed atomic.Int64
	const workers = 2
	g := buildSchedGraph(t, "polling", workers, 8, &flag, &executed)
	e, err := New(g, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	// Fire the flag only after all compute work finished — if polling
	// blocked the workers, this would deadlock; re-enqueueing lets the
	// compute ops run first.
	go func() {
		for executed.Load() < 8 {
			time.Sleep(100 * time.Microsecond)
		}
		flag.Store(true)
	}()
	if _, err := e.Run(0, nil, "sink"); err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 8 {
		t.Errorf("executed = %d", executed.Load())
	}
	// Polling misses must have been recorded.
	var misses int64
	for _, s := range e.Stats() {
		if s.Op == "FlagRecv_polling" {
			misses = s.PollMisses
		}
	}
	if misses == 0 {
		t.Error("no poll misses recorded despite delayed flag")
	}
}

func TestStatsAccounting(t *testing.T) {
	var flag atomic.Bool
	flag.Store(true)
	var executed atomic.Int64
	g := buildSchedGraph(t, "polling", 1, 3, &flag, &executed)
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Run(i, nil, "sink"); err != nil {
			t.Fatal(err)
		}
	}
	byOp := map[string]OpStats{}
	for _, s := range e.Stats() {
		byOp[s.Op] = s
	}
	if byOp["Work"].Executions != 12 {
		t.Errorf("Work executions = %d, want 12", byOp["Work"].Executions)
	}
	if byOp["NoOp"].Executions != 4 {
		t.Errorf("NoOp executions = %d, want 4", byOp["NoOp"].Executions)
	}
	if byOp["Work"].Mean() <= 0 {
		t.Error("Work mean duration not recorded")
	}
}

// benchmarkSched measures time-to-completion of a mixed recv+compute graph
// where the flag fires 2ms into the iteration.
func benchmarkSched(b *testing.B, mode string, workers int) {
	var executed atomic.Int64
	for i := 0; i < b.N; i++ {
		var flag atomic.Bool
		g := buildSchedGraph(b, mode, workers, 16, &flag, &executed)
		e, err := New(g, Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		timer := time.AfterFunc(2*time.Millisecond, func() { flag.Store(true) })
		if _, err := e.Run(0, nil, "sink"); err != nil {
			b.Fatal(err)
		}
		timer.Stop()
	}
}

// BenchmarkSchedulingModes is the §4 ablation: polling-async (the paper's
// new mode) versus blocking workers on the flag versus sleep-polling.
func BenchmarkSchedulingModes(b *testing.B) {
	for _, mode := range []string{"polling", "blocking", "sleeping"} {
		b.Run(mode, func(b *testing.B) { benchmarkSched(b, mode, 2) })
	}
}

// TestWarmRunAllocsIndependentOfNodeCount: once warmed, a Run reuses the
// node contexts, the ready queue and the poll scratch, and the outputs are
// recycled, so the objects it allocates per iteration (run state, worker
// goroutines, the fetch map) do not grow with the partition.
func TestWarmRunAllocsIndependentOfNodeCount(t *testing.T) {
	allocs := func(n int) float64 {
		var flag atomic.Bool
		var executed atomic.Int64
		flag.Store(true) // every poll hits: no backoff sleeps in the count
		e, err := New(buildSchedGraph(t, "polling", n, n, &flag, &executed), Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		iter := 0
		run := func() {
			if _, err := e.Run(iter, nil); err != nil {
				t.Fatal(err)
			}
			iter++
		}
		run() // warm the recycler
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(4), allocs(64)
	t.Logf("allocs per warm run: %v at 8 nodes, %v at 128 nodes", small, large)
	const bound = 40
	if large > bound {
		t.Errorf("warm run allocates %v objects at 128 nodes, want <= %d", large, bound)
	}
	if large > small+2 {
		t.Errorf("warm run allocations grow with the partition: %v at 8 nodes, %v at 128", small, large)
	}
}

// gateOp records how many runs execute it at once.
type gateOp struct{ active, peak *atomic.Int32 }

func (g *gateOp) Name() string { return "Gate" }
func (g *gateOp) InferSig(in []graph.Sig) (graph.Sig, error) {
	return graph.Static(tensor.Float32), nil
}
func (g *gateOp) Compute(ctx *graph.Context) error {
	n := g.active.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	g.active.Add(-1)
	out, err := ctx.Alloc(tensor.Float32, nil)
	if err != nil {
		return err
	}
	ctx.Output = out
	return nil
}

// TestConcurrentRunsSerialized: the node contexts belong to the executor,
// so two goroutines calling Run on one executor must take turns.
func TestConcurrentRunsSerialized(t *testing.T) {
	var active, peak atomic.Int32
	b := graph.NewBuilder()
	b.AddNode("gate", &gateOp{active: &active, peak: &peak})
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; i < 5; i++ {
				if _, err := e.Run(i, nil, "gate"); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("%d runs executed at once on one executor, want 1", p)
	}
}
