package analyzer

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// fakeSend/fakeRecv are no-op comm operators for partition tests.
type fakeSend struct{ spec EdgeSpec }

func (f *fakeSend) Name() string { return "FakeSend" }
func (f *fakeSend) InferSig(in []graph.Sig) (graph.Sig, error) {
	if len(in) != 1 {
		return graph.Sig{}, errors.New("FakeSend wants one input")
	}
	return graph.Static(tensor.Float32), nil
}
func (f *fakeSend) Compute(ctx *graph.Context) error { return nil }

type fakeRecv struct{ spec EdgeSpec }

func (f *fakeRecv) Name() string { return "FakeRecv" }
func (f *fakeRecv) InferSig(in []graph.Sig) (graph.Sig, error) {
	if len(in) != 0 {
		return graph.Sig{}, errors.New("FakeRecv wants no inputs")
	}
	return f.spec.Sig, nil
}
func (f *fakeRecv) Compute(ctx *graph.Context) error { return nil }

func fakeFactory(spec EdgeSpec) (graph.Op, graph.Op, error) {
	return &fakeSend{spec: spec}, &fakeRecv{spec: spec}, nil
}

func TestPartitionInsertsSendRecv(t *testing.T) {
	b := graph.NewBuilder()
	b.OnTask("ps0")
	w := b.Variable("w", graph.Static(tensor.Float32, 8, 4))
	b.OnTask("worker0")
	x := b.Placeholder("x", graph.Static(tensor.Float32, 2, 8))
	y := b.MatMul("y", x, w) // w crosses ps0 -> worker0

	res, err := Partition(b, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(res.Edges))
	}
	e := res.Edges[0]
	if e.SrcNode != "w" || e.SrcTask != "ps0" || e.DstTask != "worker0" || !e.Sig.Static {
		t.Errorf("edge = %+v", e)
	}
	// y's second input must now be the recv node, on worker0.
	recv := y.Inputs()[1]
	if !strings.HasPrefix(recv.Name(), "recv/") || recv.Task() != "worker0" {
		t.Errorf("rewired input = %s@%s", recv.Name(), recv.Task())
	}
	send, err := res.Graph.Node("send/w->worker0")
	if err != nil {
		t.Fatal(err)
	}
	if send.Task() != "ps0" || send.Inputs()[0].Name() != "w" {
		t.Errorf("send node = %v", send)
	}
	if len(res.Tasks) != 2 {
		t.Errorf("tasks = %v", res.Tasks)
	}
}

func TestPartitionSharesEdgeAcrossConsumers(t *testing.T) {
	// Two consumers of the same remote tensor on the same task share one
	// Send/Recv pair.
	b := graph.NewBuilder()
	b.OnTask("ps0")
	w := b.Variable("w", graph.Static(tensor.Float32, 4, 4))
	b.OnTask("worker0")
	c1 := b.Identity("c1", w)
	c2 := b.Identity("c2", w)
	res, err := Partition(b, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 1 {
		t.Fatalf("edges = %d, want 1 (shared)", len(res.Edges))
	}
	if c1.Inputs()[0] != c2.Inputs()[0] {
		t.Error("consumers should share the recv node")
	}
}

func TestPartitionSeparateEdgesPerTask(t *testing.T) {
	// The same source fanning out to two tasks gets one edge per task.
	b := graph.NewBuilder()
	b.OnTask("ps0")
	w := b.Variable("w", graph.Static(tensor.Float32, 4))
	b.OnTask("worker0")
	b.Identity("u0", w)
	b.OnTask("worker1")
	b.Identity("u1", w)
	res, err := Partition(b, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(res.Edges))
	}
}

func TestPartitionStaticDynamicSplit(t *testing.T) {
	b := graph.NewBuilder()
	b.OnTask("worker0")
	s := b.Placeholder("s", graph.Static(tensor.Float32, 8))
	d := b.Placeholder("d", graph.Dyn(tensor.Float32, -1, 8))
	b.OnTask("ps0")
	b.Identity("cs", s)
	b.Identity("cd", d)
	res, err := Partition(b, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StaticEdges()) != 1 || len(res.DynamicEdges()) != 1 {
		t.Errorf("static %d dynamic %d", len(res.StaticEdges()), len(res.DynamicEdges()))
	}
}

func TestPartitionRejectsCrossControl(t *testing.T) {
	b := graph.NewBuilder()
	b.OnTask("a")
	x := b.Placeholder("x", graph.Static(tensor.Float32, 1))
	b.OnTask("b")
	y := b.Placeholder("y", graph.Static(tensor.Float32, 1))
	b.ControlDep(y, x)
	if _, err := Partition(b, fakeFactory); !errors.Is(err, ErrPartition) {
		t.Errorf("cross control: %v", err)
	}
}

func TestPartitionFactoryError(t *testing.T) {
	b := graph.NewBuilder()
	b.OnTask("a")
	x := b.Placeholder("x", graph.Static(tensor.Float32, 1))
	b.OnTask("b")
	b.Identity("c", x)
	bad := func(spec EdgeSpec) (graph.Op, graph.Op, error) {
		return nil, nil, errors.New("nope")
	}
	if _, err := Partition(b, bad); err == nil {
		t.Error("factory error swallowed")
	}
}

// --- TracingPolicy ---

func mkNode(t *testing.T, name string) *graph.Node {
	t.Helper()
	b := graph.NewBuilder()
	n := b.Placeholder(name, graph.Dyn(tensor.Float32, -1))
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	return n
}

func TestTracingPromotesHotSites(t *testing.T) {
	arena := alloc.NewArena(make([]byte, 1<<16))
	p := NewTracingPolicy(arena, true)
	n := mkNode(t, "producer")

	// Iteration 0: heap, traced.
	t0, err := p.Alloc(n, 0, 0, tensor.Float32, tensor.Shape{16})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.LookupRegistered(t0); ok {
		t.Error("iteration-0 tensor should be heap-allocated")
	}
	p.NoteTransfer(t0, "producer")
	if p.HotSites() != 1 {
		t.Fatalf("hot sites = %d", p.HotSites())
	}

	// Iteration 1: same site allocates from the arena.
	t1, err := p.Alloc(n, 1, 0, tensor.Float32, tensor.Shape{16})
	if err != nil {
		t.Fatal(err)
	}
	buf, ok := p.LookupRegistered(t1)
	if !ok {
		t.Fatal("hot-site tensor not in arena")
	}
	if &buf.Data[0] != &t1.Bytes()[0] {
		t.Error("tensor does not alias arena buffer")
	}
	// A different site stays on the heap.
	tOther, _ := p.Alloc(n, 1, 1, tensor.Float32, tensor.Shape{16})
	if _, ok := p.LookupRegistered(tOther); ok {
		t.Error("cold site promoted")
	}
}

func TestTracingStagingBinding(t *testing.T) {
	arena := alloc.NewArena(make([]byte, 1<<12))
	p := NewTracingPolicy(arena, true)
	n := mkNode(t, "w-producer")
	t0, _ := p.Alloc(n, 0, 0, tensor.Float32, tensor.Shape{4})
	p.NoteTransfer(t0, "w-producer")
	staging := tensor.New(tensor.Float32, 4)
	p.BindStaging("w-producer", staging)
	t1, err := p.Alloc(n, 1, 0, tensor.Float32, tensor.Shape{4})
	if err != nil {
		t.Fatal(err)
	}
	if t1 != staging {
		t.Error("hot allocation should return the bound staging tensor")
	}
	// Shape mismatch against staging is an error.
	if _, err := p.Alloc(n, 1, 0, tensor.Float32, tensor.Shape{5}); !errors.Is(err, ErrTrace) {
		t.Errorf("staging shape mismatch: %v", err)
	}
}

func TestTracingArenaExhaustionFallsBack(t *testing.T) {
	arena := alloc.NewArena(make([]byte, 64))
	p := NewTracingPolicy(arena, true)
	n := mkNode(t, "big")
	t0, _ := p.Alloc(n, 0, 0, tensor.Float32, tensor.Shape{1024})
	p.NoteTransfer(t0, "big")
	t1, err := p.Alloc(n, 1, 0, tensor.Float32, tensor.Shape{1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.LookupRegistered(t1); ok {
		t.Error("oversized allocation should fall back to heap")
	}
}

func TestTracingFreesOldIterations(t *testing.T) {
	arena := alloc.NewArena(make([]byte, 1<<12))
	p := NewTracingPolicy(arena, true)
	n := mkNode(t, "seq")
	t0, _ := p.Alloc(n, 0, 0, tensor.Float32, tensor.Shape{64})
	p.NoteTransfer(t0, "seq")
	for iter := 1; iter <= 10; iter++ {
		if _, err := p.Alloc(n, iter, 0, tensor.Float32, tensor.Shape{64}); err != nil {
			t.Fatal(err)
		}
	}
	st := arena.Stats()
	// At most two iterations' worth of buffers (64 float32 = 256 bytes
	// each) may be live.
	if st.InUse > 2*256 {
		t.Errorf("arena holds %d bytes, want <= %d", st.InUse, 2*256)
	}
	if st.Frees == 0 {
		t.Error("no buffers were freed")
	}
}

func TestTracingDisabledNeverPromotes(t *testing.T) {
	arena := alloc.NewArena(make([]byte, 1<<12))
	p := NewTracingPolicy(arena, false)
	if p.Enabled() {
		t.Error("Enabled() = true")
	}
	n := mkNode(t, "off")
	t0, _ := p.Alloc(n, 0, 0, tensor.Float32, tensor.Shape{8})
	p.NoteTransfer(t0, "off")
	if p.HotSites() != 0 {
		t.Error("disabled policy recorded hot sites")
	}
	t1, _ := p.Alloc(n, 1, 0, tensor.Float32, tensor.Shape{8})
	if _, ok := p.LookupRegistered(t1); ok {
		t.Error("disabled policy promoted an allocation")
	}
}

// TestTracingRecyclableSites: with promotion on, the tracing iteration and
// every hot site go through Alloc; a cold site is recyclable from
// iteration 1 on, which also advances the iteration cursor so old arena
// buffers are still freed when the hot sites' allocations stop coming.
// With promotion off every site is recyclable.
func TestTracingRecyclableSites(t *testing.T) {
	arena := alloc.NewArena(make([]byte, 1<<12))
	p := NewTracingPolicy(arena, true)
	n := mkNode(t, "mixed")
	if p.Recyclable(n, 0, 1) {
		t.Error("tracing iteration recyclable: sites would go unrecorded")
	}
	t0, _ := p.Alloc(n, 0, 0, tensor.Float32, tensor.Shape{64})
	p.NoteTransfer(t0, "mixed")
	if p.Recyclable(n, 1, 0) {
		t.Error("hot site recyclable: its arena placement would be bypassed")
	}
	if !p.Recyclable(n, 1, 1) {
		t.Error("cold site not recyclable at iteration 1")
	}
	if _, err := p.Alloc(n, 1, 0, tensor.Float32, tensor.Shape{64}); err != nil {
		t.Fatal(err)
	}
	if got := arena.Stats().InUse; got == 0 {
		t.Fatal("hot site did not allocate from the arena")
	}
	// Only cold sites allocate from here on; the cursor still moves.
	p.Recyclable(n, 3, 1)
	if got := arena.Stats().InUse; got != 0 {
		t.Errorf("arena holds %d bytes two iterations later, want 0", got)
	}

	off := NewTracingPolicy(arena, false)
	for iter := 0; iter < 3; iter++ {
		if !off.Recyclable(n, iter, 0) {
			t.Errorf("promotion off: site not recyclable at iteration %d", iter)
		}
	}
}
