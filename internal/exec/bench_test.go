package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// benchTrainGraph builds the benchmark model — a small conv classifier with
// forward+backward+SGD — shared by the train-step and observability-overhead
// benchmarks.
func benchTrainGraph() (*graph.Graph, *VarStore, error) {
	const batch, h, w, ch, classes = 16, 16, 16, 3, 10
	rng := rand.New(rand.NewSource(1))
	gb := graph.NewBuilder()
	x := gb.Placeholder("x", graph.Static(tensor.Float32, batch, h, w, ch))
	labels := gb.Placeholder("labels", graph.Static(tensor.Int32, batch))
	c1w := gb.Variable("conv1_w", graph.Static(tensor.Float32, 8, 3, 3, ch))
	conv1 := gb.ReLU("relu1", gb.Conv2D("conv1", x, c1w, 1, 1))
	pool1 := gb.MaxPool("pool1", conv1)
	flat := gb.Reshape("flat", pool1, batch, 8*8*8)
	fcw := gb.Variable("fc_w", graph.Static(tensor.Float32, 8*8*8, classes))
	logits := gb.MatMul("fc", flat, fcw)
	loss := gb.SoftmaxXent("loss", logits, labels)
	vars := []*graph.Node{c1w, fcw}
	grads, err := graph.Gradients(gb, loss, vars)
	if err != nil {
		return nil, nil, err
	}
	var updates []*graph.Node
	for i, v := range vars {
		updates = append(updates, gb.ApplySGD(fmt.Sprintf("upd%d", i), v, grads[v], 0.05))
	}
	step := gb.Group("step", updates...)
	gb.Prune(append([]*graph.Node{loss, step}, updates...)...)
	g, err := gb.Finish()
	if err != nil {
		return nil, nil, err
	}
	store := NewVarStore()
	for _, v := range vars {
		t := tensor.New(tensor.Float32, v.Sig().Shape...)
		tensor.GlorotInit(t, rng)
		if err := store.Create(v.Name(), t); err != nil {
			return nil, nil, err
		}
	}
	return g, store, nil
}

// benchStep runs the executor over the benchmark model for b.N steps after
// one warm-up iteration.
func benchStep(b *testing.B, e *Executor) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	xs := tensor.New(tensor.Float32, 16, 16, 16, 3)
	ls := tensor.New(tensor.Int32, 16)
	tensor.RandomNormal(xs, rng, 1)
	tensor.RandomLabels(ls, rng, 10)
	feeds := map[string]*tensor.Tensor{"x": xs, "labels": ls}
	// Warm the recycler cache (and histogram pointers) before measuring.
	if _, err := e.Run(0, feeds, "loss", "step"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(i+1, feeds, "loss", "step"); err != nil {
			b.Fatal(err)
		}
	}
}

// freshHeapPolicy is HeapPolicy without recycling: every allocation is a
// new heap tensor, the baseline BenchmarkTrainStep compares against.
type freshHeapPolicy struct{ HeapPolicy }

func (freshHeapPolicy) Recyclable(*graph.Node, int, int) bool { return false }

// BenchmarkTrainStep measures a full forward+backward+SGD iteration of a
// small conv classifier, with and without output-tensor recycling. Run with
// -benchmem: the recycle=on steady state should allocate materially fewer
// tensors per iteration (scripts/bench.sh records both).
func BenchmarkTrainStep(b *testing.B) {
	for _, recycle := range []bool{false, true} {
		b.Run(fmt.Sprintf("recycle=%v", recycle), func(b *testing.B) {
			g, store, err := benchTrainGraph()
			if err != nil {
				b.Fatal(err)
			}
			var policy AllocPolicy = HeapPolicy{}
			if !recycle {
				policy = freshHeapPolicy{}
			}
			e, err := New(g, Config{Vars: store, Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			benchStep(b, e)
		})
	}
}

// BenchmarkTrainStepObs measures what the observability layer costs on the
// same train step: obs=off (no histograms, no trace), obs=hists (latency
// histograms recording on every operator execution), and obs=hists+trace
// (plus a trace span per execution). scripts/bench.sh records all three
// into BENCH_obs.json; the histogram-only overhead is the one that matters,
// since histograms are meant to stay on in production.
func BenchmarkTrainStepObs(b *testing.B) {
	for _, mode := range []string{"off", "hists", "hists+trace"} {
		b.Run("obs="+mode, func(b *testing.B) {
			g, store, err := benchTrainGraph()
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Vars: store}
			switch mode {
			case "hists":
				cfg.Hists = &metrics.Set{}
			case "hists+trace":
				cfg.Hists = &metrics.Set{}
				cfg.Trace = trace.NewRecorder(0)
			}
			e, err := New(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			benchStep(b, e)
		})
	}
}
