package distributed

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rdma"
	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// RPC-baseline operator kernels: the sender serializes the tensor into a
// wire message and pushes it with a unary call; the receiving server's
// service handler deserializes into a fresh buffer and places it in the
// edge's mailbox, which the recv kernel polls. Every stage pays the copies
// the paper attributes to the RPC abstraction (§2.2).

// pushMethod is the tensor-push RPC method name.
const pushMethod = "tensor.push"

// --- RPCSend ---

type rpcSendOp struct{ edgeOp }

func (op *rpcSendOp) ComputeAsync(ctx *graph.Context, done func(error)) {
	env, e, err := op.edge(ctx)
	if err != nil {
		done(err)
		return
	}
	in := ctx.Inputs[0]
	shape := make([]int64, in.Shape().Rank())
	for i, d := range in.Shape() {
		shape[i] = int64(d)
	}
	msg := wire.TensorMessage{
		Name:    op.spec.Key,
		DType:   uint32(in.DType()),
		Shape:   shape,
		Payload: in.Bytes(),
		Seq:     uint64(ctx.Iter) + 1,
	}
	enc := msg.Marshal() // serialization: copies the payload
	env.Metrics.AddSerialized(len(enc))
	env.Metrics.AddCopy(in.ByteSize())
	env.recordSent(e, len(enc))
	ctx.Output = in
	// The unary call blocks; run it off the scheduler worker. Don't push at
	// all once the iteration is dead: a stale push landing in the receiver's
	// mailbox after the abort could be handed to a later iteration as its
	// data — the same stale-transfer class the RDMA edges guard against with
	// TransferOpts.Canceled. The receive side additionally discards
	// mismatched sequence numbers, because a call already on the wire when
	// the step dies cannot be recalled.
	canceled := ctx.Canceled
	go func() {
		if canceled != nil && canceled() {
			done(fmt.Errorf("%w: edge %s push canceled by failed step: %w",
				ErrComm, op.spec.Key, rdma.ErrCanceled))
			return
		}
		_, err := e.client.Call(pushMethod, enc)
		done(err)
	}()
}

// --- RPCRecv (polls the edge mailbox) ---

type rpcRecvOp struct{ edgeOp }

func (op *rpcRecvOp) Poll(ctx *graph.Context) (bool, error) {
	_, e, err := op.edge(ctx)
	if err != nil {
		return false, err
	}
	mb := e.mb
	for {
		select {
		case item := <-mb.ch:
			if item.seq != ctx.Iter+1 {
				// A push from a dead iteration: the sender's call was already
				// on the wire when its step aborted, or a checkpoint rollback
				// rewound past it. Its seq cannot match the live iteration
				// (stale < live after a plain abort retry, stale > live after
				// a rollback), so discard it and keep draining rather than
				// deliver another iteration's tensor — or poison this one
				// with a hard error over a message nobody wants.
				continue
			}
			mb.stash(item)
			return true, nil
		default:
			return false, nil
		}
	}
}

func (op *rpcRecvOp) Compute(ctx *graph.Context) error {
	env, e, err := op.edge(ctx)
	if err != nil {
		return err
	}
	item, ok := e.mb.takeStash()
	if !ok {
		return fmt.Errorf("%w: RPCRecv scheduled without a message", ErrComm)
	}
	env.recordRecv(e, item.t.ByteSize())
	ctx.Output = item.t
	return nil
}

// registerPushService installs the tensor-push handler on a server's RPC
// server, routing messages into per-edge mailboxes by edge name.
func registerPushService(env *Env, register func(method string, h rpc.Handler)) {
	register(pushMethod, func(req []byte) ([]byte, error) {
		var msg wire.TensorMessage
		if err := msg.Unmarshal(req); err != nil { // deserialization copy
			return nil, err
		}
		env.Metrics.AddSerialized(len(req))
		env.Metrics.AddCopy(len(msg.Payload))
		dt := tensor.DType(msg.DType)
		shape := make(tensor.Shape, len(msg.Shape))
		for i, d := range msg.Shape {
			shape[i] = int(d)
		}
		t, err := tensor.FromBytes(dt, shape, msg.Payload)
		if err != nil {
			return nil, err
		}
		e, err := env.named(msg.Name)
		if err != nil {
			return nil, err
		}
		e.mb.ch <- mailboxItem{seq: int(msg.Seq), t: t}
		return nil, nil
	})
}
