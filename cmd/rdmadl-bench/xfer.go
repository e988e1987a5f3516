package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// The transfer workloads move tensors from worker0 to ps0 and nothing else.
// The source of every edge is an operator output (ReLU of a fed
// placeholder): allocation-site tracing can place an operator's output in
// registered memory, a fed placeholder it cannot, and fed sources were
// measured to be staged every step (ZeroCopyOps == 0).
const (
	xferSmallCount = 64
	xferSmallBytes = 1 << 10
	xferLargeBytes = 8 << 20
	// xferPayloadSets is how many distinct seeded payload sets rotate step by
	// step, so that a sink holding the previous step's bytes is caught.
	xferPayloadSets = 4
)

// xferOpts turns the striping and coalescing policies on: 1 KiB tensors ride
// one coalesced batch per step, the 8 MiB tensor is striped over 4 lanes.
var xferOpts = rdma.TransferOpts{Stripes: 4, CoalesceThreshold: 4096}

type xferShape struct {
	name  string
	count int // tensors per step
	bytes int // bytes per tensor
}

var (
	xferSmall = xferShape{"small", xferSmallCount, xferSmallBytes}
	xferLarge = xferShape{"large", 1, xferLargeBytes}
)

// startXfer builds the two-task graph for one shape and launches it.
func startXfer(sh xferShape, dynamic bool, seed int64,
	tr *tracer, parent *span, st *stageMS) (*clusterInst, error) {
	elems := sh.bytes / 4
	sig := graph.Static(tensor.Float32, elems)
	if dynamic {
		sig = graph.Dyn(tensor.Float32, -1)
	}
	b := graph.NewBuilder()
	srcs := make([]*graph.Node, sh.count)
	inputs, sinks := make([]string, sh.count), make([]string, sh.count)
	b.OnTask("worker0")
	for i := range srcs {
		inputs[i], sinks[i] = fmt.Sprintf("x%d", i), fmt.Sprintf("sink%d", i)
		srcs[i] = b.ReLU(fmt.Sprintf("src%d", i), b.Placeholder(inputs[i], sig))
	}
	b.OnTask("ps0")
	for i, src := range srcs {
		b.Identity(sinks[i], src)
	}
	if err := b.Err(); err != nil {
		return nil, err
	}

	// Payloads are non-negative, so ReLU leaves their bits alone and the sink
	// must hold exactly the bytes that were fed.
	rng := rand.New(rand.NewSource(seed))
	sets := make([]feedMap, xferPayloadSets)
	for s := range sets {
		feed := make(map[string]*tensor.Tensor, sh.count)
		for _, name := range inputs {
			t := tensor.New(tensor.Float32, elems)
			tensor.RandomUniform(t, rng, 1)
			vals := t.Float32s()
			for j, v := range vals {
				if v < 0 {
					vals[j] = -v
				}
			}
			feed[name] = t
		}
		sets[s] = feedMap{"worker0": feed}
	}

	sp := tr.begin(parent, "distributed", "Launch")
	t := time.Now()
	cl, err := distributed.Launch(b, clusterConfig(xferOpts, tr))
	st.launch += msSince(t)
	sp.End()
	if err != nil {
		return nil, err
	}
	check := func(iter int, out feedMap) error {
		want := sets[iter%xferPayloadSets]["worker0"]
		for i, sink := range sinks {
			got := out["ps0"][sink]
			if got == nil {
				return fmt.Errorf("sink %s returned nothing", sink)
			}
			if !bytes.Equal(got.Bytes(), want[inputs[i]].Bytes()) {
				return fmt.Errorf("sink %s does not hold the bytes fed at this step", sink)
			}
		}
		return nil
	}
	return &clusterInst{
		cl:    cl,
		tasks: cl.Result().Tasks,
		loop: &stepLoop{cl: cl, fetches: fetchMap{"ps0": sinks}, check: check,
			feeds: func(iter int) feedMap { return sets[iter%xferPayloadSets] }},
	}, nil
}

func xferWorkload(ctx *runCtx, dynamic bool) *clusterWorkload {
	shapes := []xferShape{xferSmall, xferLarge}
	w := &clusterWorkload{
		latencyPhase: 0,
		workPhase:    1,
		workPerStep:  float64(xferLargeBytes) / 1e6,
	}
	for _, sh := range shapes {
		sh := sh
		w.phases = append(w.phases, clusterPhase{
			name: sh.name,
			start: func(tr *tracer, parent *span, st *stageMS) (*clusterInst, error) {
				return startXfer(sh, dynamic, ctx.seed, tr, parent, st)
			},
		})
	}
	// A workload that silently stopped exercising its path is worse than
	// none: these abort the run instead of counting a failure.
	w.after = func(phase int, inst *clusterInst, before books, _ *result) error {
		d := readBooks(inst).minus(before)
		res := inst.cl.Result()
		switch {
		case dynamic && len(res.StaticEdges()) > 0:
			return fmt.Errorf("%w: %d static edges in the dynamic workload", errPathGuard, len(res.StaticEdges()))
		case dynamic && d[bDynTransfers] == 0:
			return fmt.Errorf("%w: no dynamic transfer happened", errPathGuard)
		case !dynamic && len(res.DynamicEdges()) > 0:
			return fmt.Errorf("%w: %d dynamic edges in the static workload", errPathGuard, len(res.DynamicEdges()))
		case !dynamic && phase == 0 && d[bCoalesceFlushes] == 0:
			return fmt.Errorf("%w: the 1 KiB tensors were not coalesced", errPathGuard)
		case !dynamic && phase == 1 && d[bZeroCopyOps] == 0:
			return fmt.Errorf("%w: the 8 MiB tensor was staged, not sent zero-copy", errPathGuard)
		case !dynamic && phase == 1 && d[bStripeSegments] == 0:
			return fmt.Errorf("%w: the 8 MiB tensor was not striped", errPathGuard)
		}
		return nil
	}
	return w
}

func runXfer(ctx *runCtx, dynamic bool) (*result, error) {
	w := xferWorkload(ctx, dynamic)
	if ctx.trace {
		return w.runTraced(ctx)
	}
	return w.run(ctx)
}

func runXferStatic(ctx *runCtx) (*result, error)  { return runXfer(ctx, false) }
func runXferDynamic(ctx *runCtx) (*result, error) { return runXfer(ctx, true) }
