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

func commEnv(ctx *graph.Context) (*Env, error) {
	env, ok := ctx.Env.(*Env)
	if !ok || env == nil {
		return nil, fmt.Errorf("%w: kernel run without a communication Env", ErrComm)
	}
	return env, nil
}

// --- RdmaSend (static placement) ---

type rdmaSendOp struct{ spec analyzer.EdgeSpec }

func (op *rdmaSendOp) Name() string    { return "RdmaSend" }
func (op *rdmaSendOp) EdgeKey() string { return op.spec.Key }

func (op *rdmaSendOp) InferSig(in []graph.Sig) (graph.Sig, error) {
	if err := wantEdgeInput("RdmaSend", in, 1); err != nil {
		return graph.Sig{}, err
	}
	return in[0], nil
}

func (op *rdmaSendOp) ComputeAsync(ctx *graph.Context, done func(error)) {
	env, err := commEnv(ctx)
	if err != nil {
		done(err)
		return
	}
	st, err := env.staticSendState(op.spec.Key)
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
	if &in.Bytes()[0] == &st.slot.tensor.Bytes()[0] {
		env.Metrics.AddZeroCopy()
	} else {
		st.slot.sendMu.Lock()
		payload = in.Bytes()
		env.Metrics.AddCopy(in.ByteSize())
		complete = func(err error) {
			st.slot.sendMu.Unlock()
			done(err)
		}
	}
	env.recordSent(op.spec.Key, rdma.StaticSlotSize(op.spec.Sig.ByteSize()))
	if rdma.EffectiveStripes(op.spec.Sig.ByteSize(), env.Xfer.Stripes) > 1 {
		env.Metrics.AddStripedTransfer()
	}
	ctx.Output = in
	// The send posts and returns; done fires from the write's completion,
	// and transient faults are retried (bounded by the Env's transfer opts)
	// from a backoff timer, so no goroutine waits on the wire. The cancel
	// flag rides along so the retry dies with the run — a re-send landing
	// after an abort would clobber the receiver's slot mid-recovery.
	opts := st.opts
	opts.Canceled = ctx.Canceled
	st.sender.SendRetryFromAsync(payload, opts, func(err error) {
		complete(env.edgeErr(op.spec.Key, err))
	})
}

// --- RdmaRecv (static placement, polling-async) ---

type rdmaRecvOp struct{ spec analyzer.EdgeSpec }

func (op *rdmaRecvOp) Name() string    { return "RdmaRecv" }
func (op *rdmaRecvOp) EdgeKey() string { return op.spec.Key }

func (op *rdmaRecvOp) InferSig(in []graph.Sig) (graph.Sig, error) {
	if err := wantEdgeInput("RdmaRecv", in, 0); err != nil {
		return graph.Sig{}, err
	}
	return op.spec.Sig, nil
}

func (op *rdmaRecvOp) Poll(ctx *graph.Context) (bool, error) {
	env, err := commEnv(ctx)
	if err != nil {
		return false, err
	}
	st, err := env.staticRecvState(op.spec.Key)
	if err != nil {
		return false, err
	}
	return st.recv.Poll(), nil
}

func (op *rdmaRecvOp) Compute(ctx *graph.Context) error {
	env, err := commEnv(ctx)
	if err != nil {
		return err
	}
	st, err := env.staticRecvState(op.spec.Key)
	if err != nil {
		return err
	}
	// Zero-copy receive: the output tensor aliases the preallocated slot.
	t, err := tensor.FromBytes(op.spec.Sig.DType, op.spec.Sig.Shape, st.recv.Payload())
	if err != nil {
		return err
	}
	st.recv.Consume()
	env.recordRecv(op.spec.Key, t.ByteSize())
	ctx.Output = t
	return nil
}

// --- RdmaSendDyn (dynamic allocation) ---

type rdmaSendDynOp struct{ spec analyzer.EdgeSpec }

func (op *rdmaSendDynOp) Name() string    { return "RdmaSendDyn" }
func (op *rdmaSendDynOp) EdgeKey() string { return op.spec.Key }

func (op *rdmaSendDynOp) InferSig(in []graph.Sig) (graph.Sig, error) {
	if err := wantEdgeInput("RdmaSendDyn", in, 1); err != nil {
		return graph.Sig{}, err
	}
	return in[0], nil
}

// Poll defers the send until the receiver acked the previous iteration's
// transfer, keeping the scheduler free for other work meanwhile.
func (op *rdmaSendDynOp) Poll(ctx *graph.Context) (bool, error) {
	env, err := commEnv(ctx)
	if err != nil {
		return false, err
	}
	st, err := env.dynSendState(op.spec.Key)
	if err != nil {
		return false, err
	}
	return st.sender.PollReusable(), nil
}

func (op *rdmaSendDynOp) ComputeAsync(ctx *graph.Context, done func(error)) {
	env, err := commEnv(ctx)
	if err != nil {
		done(err)
		return
	}
	st, err := env.dynSendState(op.spec.Key)
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
		if st.scratch == nil || st.scratch.Size() < in.ByteSize() {
			if st.scratch != nil {
				st.dev.FreeMemRegion(st.scratch)
			}
			st.scratch, err = st.dev.AllocateMemRegion(in.ByteSize())
			if err != nil {
				done(err)
				return
			}
		}
		copy(st.scratch.Bytes(), in.Bytes())
		env.Metrics.AddCopy(in.ByteSize())
		payloadMR, payloadOff = st.scratch, 0
	}
	env.recordSent(op.spec.Key, in.ByteSize()+rdma.DynMetaSize)
	env.Metrics.AddDynTransfer()
	ctx.Output = in
	size := in.ByteSize()
	dt := uint32(in.DType())
	// Retried from its completions like rdmaSendOp's send. ErrBusy from a
	// not-yet-acked previous transfer is also retried: the ack may just be
	// in flight behind an injected delay.
	opts := st.opts
	opts.Canceled = ctx.Canceled
	st.sender.SendRetryAsync(payloadMR, payloadOff, size, dt, dims, opts, func(err error) {
		done(env.edgeErr(op.spec.Key, err))
	})
}

// --- RdmaRecvDyn (dynamic allocation, polling-async) ---

type rdmaRecvDynOp struct{ spec analyzer.EdgeSpec }

func (op *rdmaRecvDynOp) Name() string    { return "RdmaRecvDyn" }
func (op *rdmaRecvDynOp) EdgeKey() string { return op.spec.Key }

func (op *rdmaRecvDynOp) InferSig(in []graph.Sig) (graph.Sig, error) {
	if err := wantEdgeInput("RdmaRecvDyn", in, 0); err != nil {
		return graph.Sig{}, err
	}
	return op.spec.Sig, nil
}

func (op *rdmaRecvDynOp) Poll(ctx *graph.Context) (bool, error) {
	env, err := commEnv(ctx)
	if err != nil {
		return false, err
	}
	st, err := env.dynRecvState(op.spec.Key)
	if err != nil {
		return false, err
	}
	meta, ok := st.recv.Poll()
	if ok {
		st.mu.Lock()
		st.meta, st.hasMeta = meta, true
		st.mu.Unlock()
	}
	return ok, nil
}

func (op *rdmaRecvDynOp) ComputeAsync(ctx *graph.Context, done func(error)) {
	env, err := commEnv(ctx)
	if err != nil {
		done(err)
		return
	}
	st, err := env.dynRecvState(op.spec.Key)
	if err != nil {
		done(err)
		return
	}
	st.mu.Lock()
	meta, ok := st.meta, st.hasMeta
	st.hasMeta = false
	st.mu.Unlock()
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
	st.deferFree(ctx.Iter, buf, env)
	out, err := tensor.FromBytes(dt, shape, buf.Data)
	if err != nil {
		done(err)
		return
	}
	env.recordRecv(op.spec.Key, int(meta.PayloadSize))
	if rdma.EffectiveStripes(int(meta.PayloadSize), env.Xfer.Stripes) > 1 {
		env.Metrics.AddStripedTransfer()
	}
	st.mu.Lock()
	scratch := st.senderScratch
	st.mu.Unlock()
	// done fires once the payload read AND the reuse ack completed, each
	// retried within the budget from its own completions and timers.
	opts := st.opts
	opts.Canceled = ctx.Canceled
	st.recv.FetchRetryAsync(meta, scratch, env.arenaMR, buf.Off, opts, func(err error) {
		if err == nil {
			ctx.Output = out
		}
		done(env.edgeErr(op.spec.Key, err))
	})
}

func wantEdgeInput(name string, in []graph.Sig, n int) error {
	if len(in) != n {
		return fmt.Errorf("%s: %d inputs, want %d: %w", name, len(in), n, graph.ErrBadGraph)
	}
	return nil
}
