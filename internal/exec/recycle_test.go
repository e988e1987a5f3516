package exec

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// buildChain constructs x -> scale -> add(scale, scale) -> reducemax, whose
// middle nodes allocate one output tensor each via ctx.Alloc.
func buildChain(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	x := b.Placeholder("x", graph.Static(tensor.Float32, 4, 4))
	y := b.Scale("y", x, 2)
	z := b.Add("z", y, y)
	b.ReduceMax("m", z)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func feed(t *testing.T, v float32) map[string]*tensor.Tensor {
	t.Helper()
	in := tensor.New(tensor.Float32, 4, 4)
	in.Fill(v)
	return map[string]*tensor.Tensor{"x": in}
}

func TestRecycleReusesAcrossIterations(t *testing.T) {
	e, err := New(buildChain(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	out1 := mustRun(t, e, 0, feed(t, 1), "m")
	if got := out1["m"].Float32s()[0]; got != 4 {
		t.Fatalf("iter0 m = %v, want 4", got)
	}
	if e.cacheSize() == 0 {
		t.Fatal("no tensors cached after first iteration")
	}
	// Second iteration must be served from the cache and still be correct.
	out2 := mustRun(t, e, 1, feed(t, 3), "m")
	if got := out2["m"].Float32s()[0]; got != 12 {
		t.Fatalf("iter1 m = %v, want 12", got)
	}
}

func TestRecycleExcludesFetchedOutputs(t *testing.T) {
	e, err := New(buildChain(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Fetch the allocated intermediates: their buffers escape to us and must
	// not be overwritten by the next iteration.
	out1 := mustRun(t, e, 0, feed(t, 1), "y", "z")
	y1, z1 := out1["y"].Clone(), out1["z"].Clone()
	mustRun(t, e, 1, feed(t, 100), "m")
	if !out1["y"].Equal(y1) {
		t.Fatalf("fetched y mutated by next iteration: %v", out1["y"].Float32s()[:4])
	}
	if !out1["z"].Equal(z1) {
		t.Fatalf("fetched z mutated by next iteration: %v", out1["z"].Float32s()[:4])
	}
}

func TestRecycleExcludesFetchedReshapeView(t *testing.T) {
	// A fetched Reshape output aliases the storage of the tensor its input
	// node allocated; backing-buffer identity must keep that tensor out of
	// the cache even though the Reshape node itself allocates nothing.
	b := graph.NewBuilder()
	x := b.Placeholder("x", graph.Static(tensor.Float32, 4, 4))
	y := b.Scale("y", x, 2)
	r := b.Reshape("r", y, 16)
	b.ReduceMax("m", r)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out1 := mustRun(t, e, 0, feed(t, 1), "r")
	r1 := out1["r"].Clone()
	mustRun(t, e, 1, feed(t, 50), "m")
	if !out1["r"].Equal(r1) {
		t.Fatalf("fetched reshape view mutated by next iteration: %v", out1["r"].Float32s()[:4])
	}
}

func TestRecycledTensorsAreZeroed(t *testing.T) {
	// The recycler's tensors held old values; Alloc's contract is a
	// zero-filled tensor. Scale overwrites fully, so observe zeroing
	// indirectly: outputs must match a fresh executor exactly.
	e, err := New(buildChain(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e, 0, feed(t, -7), "m")
	out := mustRun(t, e, 1, feed(t, 5), "z")
	fresh, err := New(buildChain(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, fresh, 0, feed(t, 5), "z")
	if !out["z"].Equal(want["z"]) {
		t.Fatalf("recycled run differs from fresh run: %v vs %v",
			out["z"].Float32s(), want["z"].Float32s())
	}
}

// nonRecyclingPolicy must observe every allocation, so it answers no site
// recyclable and counts calls.
type nonRecyclingPolicy struct{ calls *int }

func (p nonRecyclingPolicy) Alloc(_ *graph.Node, _, _ int, dt tensor.DType, shape tensor.Shape) (*tensor.Tensor, error) {
	*p.calls++
	return tensor.New(dt, shape...), nil
}

func (nonRecyclingPolicy) Recyclable(*graph.Node, int, int) bool { return false }

func TestRecycleRespectsPolicyOptOut(t *testing.T) {
	calls := 0
	e, err := New(buildChain(t), Config{Policy: nonRecyclingPolicy{calls: &calls}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e, 0, feed(t, 1), "m")
	after1 := calls
	mustRun(t, e, 1, feed(t, 1), "m")
	if calls != 2*after1 {
		t.Fatalf("policy saw %d allocations after two iters, want %d", calls, 2*after1)
	}
	if n := e.cacheSize(); n != 0 {
		t.Fatalf("%d tensors parked for reuse under a policy that recycles no site", n)
	}
}

func TestRecycleSteadyStateAllocFree(t *testing.T) {
	// After warm-up, iterations with unfetched intermediates should serve
	// every intermediate from the cache: the policy sees no new allocations.
	calls := 0
	countingHeap := countingPolicy{calls: &calls}
	e, err := New(buildChain(t), Config{Policy: countingHeap, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e, 0, feed(t, 1), "m")
	warm := calls
	if warm == 0 {
		t.Fatal("first iteration allocated nothing")
	}
	for i := 1; i < 5; i++ {
		mustRun(t, e, i, feed(t, float32(i)), "m")
	}
	// "m" is a fetched scalar, so its tensor is excluded and re-allocated
	// every iteration; the intermediates must all be recycled.
	perIter := (calls - warm) / 4
	if perIter > 1 {
		t.Fatalf("steady state allocates %d tensors/iter, want <= 1 (fetched scalar only)", perIter)
	}
}

type countingPolicy struct{ calls *int }

func (p countingPolicy) Alloc(_ *graph.Node, _, _ int, dt tensor.DType, shape tensor.Shape) (*tensor.Tensor, error) {
	*p.calls++
	return tensor.New(dt, shape...), nil
}

func (countingPolicy) Recyclable(*graph.Node, int, int) bool { return true }

// hotSitePolicy answers one site not recyclable, like the tracing policy
// answers for a site it promoted into a staging slot, and counts the
// policy allocations per node name.
type hotSitePolicy struct {
	hot   string
	calls map[string]int
}

func (p hotSitePolicy) Alloc(n *graph.Node, _, _ int, dt tensor.DType, shape tensor.Shape) (*tensor.Tensor, error) {
	p.calls[n.Name()]++
	return tensor.New(dt, shape...), nil
}

func (p hotSitePolicy) Recyclable(n *graph.Node, _, allocIdx int) bool {
	return n.Name() != p.hot || allocIdx != 0
}

func TestRecycleSkipsHotSite(t *testing.T) {
	pol := hotSitePolicy{hot: "y", calls: make(map[string]int)}
	e, err := New(buildChain(t), Config{Policy: pol, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 6
	for i := 0; i < iters; i++ {
		out := mustRun(t, e, i, feed(t, float32(i)), "m")
		if got, want := out["m"].Float32s()[0], float32(4*i); got != want {
			t.Fatalf("iter %d: m = %v, want %v", i, got, want)
		}
	}
	if got := pol.calls["y"]; got != iters {
		t.Errorf("hot site y reached the policy %d times over %d iterations, want every one", got, iters)
	}
	if got := pol.calls["z"]; got != 1 {
		t.Errorf("cold site z reached the policy %d times, want once (then recycled)", got)
	}
	g, _ := e.g.Node("y")
	for idx, t0 := range e.ctxs[g.ID()].prev {
		if t0 != nil {
			t.Errorf("hot site y alloc %d parked for reuse", idx)
		}
	}
}

// cacheSize reports how many tensors are parked for reuse.
func (e *Executor) cacheSize() int {
	n := 0
	for _, node := range e.nodes {
		for _, t := range e.ctxs[node.ID()].prev {
			if t != nil {
				n++
			}
		}
	}
	return n
}
