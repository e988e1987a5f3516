package distributed

import (
	"fmt"

	"repro/internal/analyzer"
	"repro/internal/graph"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// RDMA-device operator kernels: RdmaSend/RdmaRecv for statically placed
// tensors (§3.2, §4) and RdmaSendDyn/RdmaRecvDyn for dynamically allocated
// ones (§3.3). The recv operators use the polling-async execution mode.

// edgeOp is what every send/recv op shares: its edge's spec, the name the
// graph shows, and the signature rule — a send forwards its one input, a
// recv (no inputs) produces the edge's tensor.
type edgeOp struct {
	spec   analyzer.EdgeSpec
	name   string
	inputs int // 1 for a send, 0 for a recv
}

func (op *edgeOp) Name() string    { return op.name }
func (op *edgeOp) EdgeKey() string { return op.spec.Key }

func (op *edgeOp) InferSig(in []graph.Sig) (graph.Sig, error) {
	if len(in) != op.inputs {
		return graph.Sig{}, fmt.Errorf("%s: %d inputs, want %d: %w", op.name, len(in), op.inputs, graph.ErrBadGraph)
	}
	if op.inputs == 1 {
		return in[0], nil
	}
	return op.spec.Sig, nil
}

// edge resolves the op's end of its edge on the running server: one index
// by the dense edge id, no lock and no string.
func (op *edgeOp) edge(ctx *graph.Context) (*Env, *edge, error) {
	env, ok := ctx.Env.(*Env)
	if !ok || env == nil {
		return nil, nil, fmt.Errorf("%w: kernel run without a communication Env", ErrComm)
	}
	if id := op.spec.ID; id < len(env.edges) && env.edges[id] != nil {
		return env, env.edges[id], nil
	}
	return nil, nil, fmt.Errorf("%w: edge %q not set up on %s", ErrComm, op.spec.Key, env.Task)
}

// kindOf is the protocol an edge runs under cfg. The op factory and plan
// both derive it here, so an edge's ops and its state never disagree.
func kindOf(cfg Config, spec analyzer.EdgeSpec) edgeKind {
	switch {
	case cfg.Kind.UsesRPC():
		return rpcEdge
	case cfg.Transfer.CoalesceThreshold > 0 && spec.Sig.Static && spec.Sig.ByteSize() < cfg.Transfer.CoalesceThreshold:
		return coalEdge
	case !spec.Sig.Static:
		return dynEdge
	case cfg.LossyFabric:
		return lossyEdge
	}
	return staticEdge
}

func commFactory(cfg Config) analyzer.CommFactory {
	return func(spec analyzer.EdgeSpec) (graph.Op, graph.Op, error) {
		send := func(name string) edgeOp { return edgeOp{spec: spec, name: name, inputs: 1} }
		recv := func(name string) edgeOp { return edgeOp{spec: spec, name: name} }
		switch kindOf(cfg, spec) {
		case rpcEdge:
			return &rpcSendOp{send("RPCSend")}, &rpcRecvOp{recv("RPCRecv")}, nil
		case coalEdge:
			return &coalescedSendOp{send("CoalescedSend")}, &coalescedRecvOp{recv("CoalescedRecv")}, nil
		case dynEdge:
			return &rdmaSendDynOp{send("RdmaSendDyn")}, &rdmaRecvDynOp{recv("RdmaRecvDyn")}, nil
		}
		return &rdmaSendOp{send("RdmaSend")}, &rdmaRecvOp{recv("RdmaRecv")}, nil
	}
}

// --- RdmaSend (static placement) ---

type rdmaSendOp struct{ edgeOp }

func (op *rdmaSendOp) ComputeAsync(ctx *graph.Context, done func(error)) {
	env, e, err := op.edge(ctx)
	if err != nil {
		done(err)
		return
	}
	in := ctx.Inputs[0]
	if ctx.Iter == 0 && env.Policy != nil {
		// First mini-batch: report the transferred tensor so its
		// allocation site is promoted (§3.4 dynamic tracing).
		env.Policy.NoteTransfer(in, op.spec.SrcNode)
	}
	if in.ByteSize() != op.spec.Sig.ByteSize() {
		done(fmt.Errorf("%w: edge %s payload %dB, slot %dB", ErrComm, op.spec.Key,
			in.ByteSize(), op.spec.Sig.ByteSize()))
		return
	}
	// Zero-copy when the input already lives in the staging slot (the
	// analyzer arranged the allocation site); otherwise the RDMA.cp path,
	// pipelined: SendRetryFromAsync stages the payload lane by lane, so early
	// lanes' writes are in flight while later lanes are still being copied.
	// The slot's send lock is held until the write completes so sibling
	// edges sharing the staging cannot clobber bytes mid-flight.
	complete := done
	var payload []byte
	if &in.Bytes()[0] == &e.slot.tensor.Bytes()[0] {
		env.Metrics.AddZeroCopy()
	} else {
		e.slot.sendMu.Lock()
		payload = in.Bytes()
		env.Metrics.AddCopy(in.ByteSize())
		complete = func(err error) {
			e.slot.sendMu.Unlock()
			done(err)
		}
	}
	env.recordSent(e, rdma.StaticSlotSize(op.spec.Sig.ByteSize()))
	if rdma.EffectiveStripes(op.spec.Sig.ByteSize(), env.Xfer.Stripes) > 1 {
		env.Metrics.AddStripedTransfer()
	}
	ctx.Output = in
	// The send posts and returns; done fires from the write's completion,
	// and transient faults are retried (bounded by the Env's transfer opts)
	// from a backoff timer, so no goroutine waits on the wire. The cancel
	// flag rides along so the retry dies with the run — a re-send landing
	// after an abort would clobber the receiver's slot mid-recovery.
	opts := e.opts
	opts.Canceled = ctx.Canceled
	e.sender.SendRetryFromAsync(payload, opts, func(err error) {
		complete(env.edgeErr(op.spec.Key, err))
	})
}

// --- RdmaRecv (static placement, polling-async) ---

type rdmaRecvOp struct{ edgeOp }

func (op *rdmaRecvOp) Poll(ctx *graph.Context) (bool, error) {
	_, e, err := op.edge(ctx)
	if err != nil {
		return false, err
	}
	return e.recv.Poll(), nil
}

func (op *rdmaRecvOp) Compute(ctx *graph.Context) error {
	env, e, err := op.edge(ctx)
	if err != nil {
		return err
	}
	// Zero-copy receive: the output tensor aliases the preallocated slot.
	t, err := tensor.FromBytes(op.spec.Sig.DType, op.spec.Sig.Shape, e.recv.Payload())
	if err != nil {
		return err
	}
	e.recv.Consume()
	env.recordRecv(e, t.ByteSize())
	ctx.Output = t
	return nil
}

// --- RdmaSendDyn (dynamic allocation) ---

type rdmaSendDynOp struct{ edgeOp }

// Poll defers the send until the receiver acked the previous iteration's
// transfer, keeping the scheduler free for other work meanwhile.
func (op *rdmaSendDynOp) Poll(ctx *graph.Context) (bool, error) {
	_, e, err := op.edge(ctx)
	if err != nil {
		return false, err
	}
	return e.dynSend.PollReusable(), nil
}

func (op *rdmaSendDynOp) ComputeAsync(ctx *graph.Context, done func(error)) {
	env, e, err := op.edge(ctx)
	if err != nil {
		done(err)
		return
	}
	in := ctx.Inputs[0]
	if ctx.Iter == 0 && env.Policy != nil {
		env.Policy.NoteTransfer(in, op.spec.SrcNode)
	}
	dims := make([]uint64, in.Shape().Rank())
	for i, d := range in.Shape() {
		dims[i] = uint64(d)
	}
	var payloadMR *rdma.MemRegion
	var payloadOff int
	if buf, ok := env.Policy.LookupRegistered(in); ok {
		// The tensor already lives in the registered arena: the receiver
		// reads it in place, no copy.
		payloadMR, payloadOff = env.arenaMR, buf.Off
		env.Metrics.AddZeroCopy()
	} else {
		// Copy fallback into the per-edge scratch region.
		if e.scratch == nil || e.scratch.Size() < in.ByteSize() {
			if e.scratch != nil {
				e.dev.FreeMemRegion(e.scratch)
			}
			e.scratch, err = e.dev.AllocateMemRegion(in.ByteSize())
			if err != nil {
				done(err)
				return
			}
		}
		copy(e.scratch.Bytes(), in.Bytes())
		env.Metrics.AddCopy(in.ByteSize())
		payloadMR, payloadOff = e.scratch, 0
	}
	env.recordSent(e, in.ByteSize()+rdma.DynMetaSize)
	env.Metrics.AddDynTransfer()
	ctx.Output = in
	size := in.ByteSize()
	dt := uint32(in.DType())
	// Retried from its completions like rdmaSendOp's send. ErrBusy from a
	// not-yet-acked previous transfer is also retried: the ack may just be
	// in flight behind an injected delay.
	opts := e.opts
	opts.Canceled = ctx.Canceled
	e.dynSend.SendRetryAsync(payloadMR, payloadOff, size, dt, dims, opts, func(err error) {
		done(env.edgeErr(op.spec.Key, err))
	})
}

// --- RdmaRecvDyn (dynamic allocation, polling-async) ---

type rdmaRecvDynOp struct{ edgeOp }

func (op *rdmaRecvDynOp) Poll(ctx *graph.Context) (bool, error) {
	_, e, err := op.edge(ctx)
	if err != nil {
		return false, err
	}
	meta, ok := e.dynRecv.Poll()
	if ok {
		e.mu.Lock()
		e.meta, e.hasMeta = meta, true
		e.mu.Unlock()
	}
	return ok, nil
}

func (op *rdmaRecvDynOp) ComputeAsync(ctx *graph.Context, done func(error)) {
	env, e, err := op.edge(ctx)
	if err != nil {
		done(err)
		return
	}
	e.mu.Lock()
	meta, ok, back := e.meta, e.hasMeta, e.back
	e.hasMeta = false
	e.mu.Unlock()
	if !ok {
		done(fmt.Errorf("%w: RdmaRecvDyn scheduled without metadata", ErrComm))
		return
	}
	dt := tensor.DType(meta.DType)
	shape := make(tensor.Shape, len(meta.Dims))
	for i, d := range meta.Dims {
		shape[i] = int(d)
	}
	if !dt.Valid() || shape.NumElements()*dt.Size() != int(meta.PayloadSize) {
		done(fmt.Errorf("%w: edge %s metadata inconsistent: %v %v for %d bytes",
			ErrComm, op.spec.Key, dt, shape, meta.PayloadSize))
		return
	}
	// "allocates a new tensor storage in the RDMA accessible memory
	// region" (§3.3): carve the destination from the registered arena.
	buf, err := env.arena.Allocate(int(meta.PayloadSize))
	if err != nil {
		done(fmt.Errorf("%w: edge %s receive allocation: %v", ErrComm, op.spec.Key, err))
		return
	}
	e.deferFree(ctx.Iter, buf, env.arena)
	out, err := tensor.FromBytes(dt, shape, buf.Data)
	if err != nil {
		done(err)
		return
	}
	env.recordRecv(e, int(meta.PayloadSize))
	if rdma.EffectiveStripes(int(meta.PayloadSize), env.Xfer.Stripes) > 1 {
		env.Metrics.AddStripedTransfer()
	}
	// done fires once the payload read AND the reuse ack completed, each
	// retried within the budget from its own completions and timers.
	opts := e.opts
	opts.Canceled = ctx.Canceled
	e.dynRecv.FetchRetryAsync(meta, back, env.arenaMR, buf.Off, opts, func(err error) {
		if err == nil {
			ctx.Output = out
		}
		done(env.edgeErr(op.spec.Key, err))
	})
}
