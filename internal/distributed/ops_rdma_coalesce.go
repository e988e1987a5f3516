package distributed

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rdma"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Coalesced-path operator kernels: statically placed tensors below the
// coalesce threshold share one batch slot per (src, dst) task pair instead
// of paying a full slot write and reuse round-trip each. Every member edge
// stages its payload into the pair's batch (length-prefixed sub-message
// framing, see wire.BatchWriter); the iteration's last stager flushes the
// whole batch as one flagged write and completes all members.

// --- CoalescedSend ---

type coalescedSendOp struct{ edgeOp }

func (op *coalescedSendOp) ComputeAsync(ctx *graph.Context, done func(error)) {
	env, e, err := op.edge(ctx)
	if err != nil {
		done(err)
		return
	}
	in := ctx.Inputs[0]
	if in.ByteSize() != op.spec.Sig.ByteSize() {
		done(fmt.Errorf("%w: edge %s payload %dB, batch member %dB", ErrComm, op.spec.Key,
			in.ByteSize(), op.spec.Sig.ByteSize()))
		return
	}
	ctx.Output = in
	env.recordSent(e, wire.SubMsgSize(in.ByteSize()))
	env.Metrics.AddCopy(in.ByteSize()) // staging into the batch is a copy
	g := e.sendGroup
	// Staging and the flush run off the scheduler worker: the group lock is
	// held across the blocking flush, so an earlier iteration's in-flight
	// batch write blocks the next iteration's stagers instead of racing them.
	// Every stager of one batch belongs to the same iteration (the g.iter
	// guard resets stale batches), so the last stager's cancel flag covers
	// the whole flush.
	opts := g.opts
	opts.Canceled = ctx.Canceled
	go func() {
		g.mu.Lock()
		if ctx.Canceled != nil && ctx.Canceled() {
			// The run died while this member was being dispatched: the
			// remaining members will never stage, so the batch cannot fill
			// and nothing would ever fire the parked waiters. Fail the whole
			// group now — exec.Run's quiesce drain is waiting on them. (The
			// exec side also calls Env.FailPending for members that parked
			// before the failure; this check closes the race where a stager
			// lands after that sweep.)
			waiters := g.waiters
			g.waiters, g.staged = nil, 0
			g.sender.Reset()
			g.mu.Unlock()
			err := env.edgeErr(g.key, fmt.Errorf("batch member %s: %w", op.spec.Key, rdma.ErrCanceled))
			for _, w := range waiters {
				w(err)
			}
			done(err)
			return
		}
		if g.staged == 0 || g.iter != ctx.Iter {
			// New batch — or leftovers from a step that failed mid-staging.
			// Stale waiters belong to an aborted run; fail them rather than
			// let them count against this iteration's member tally.
			for _, w := range g.waiters {
				w(fmt.Errorf("%w: coalesce group %s batch abandoned by a failed step", ErrComm, g.key))
			}
			g.waiters, g.staged = nil, 0
			g.iter = ctx.Iter
			g.sender.Reset()
		}
		if err := g.sender.Stage(e.sub, in.Bytes()); err != nil {
			g.mu.Unlock()
			done(env.edgeErr(op.spec.Key, err))
			return
		}
		g.staged++
		g.waiters = append(g.waiters, done)
		if g.staged < g.members {
			g.mu.Unlock()
			return
		}
		// Last member of the iteration: ship the batch and complete everyone.
		err := g.sender.FlushRetry(opts)
		waiters := g.waiters
		g.waiters, g.staged = nil, 0
		g.mu.Unlock()
		if err == nil {
			env.Metrics.AddCoalesced(len(waiters))
		}
		for _, w := range waiters {
			w(env.edgeErr(g.key, err))
		}
	}()
}

// --- CoalescedRecv (polling-async) ---

type coalescedRecvOp struct{ edgeOp }

func (op *coalescedRecvOp) Poll(ctx *graph.Context) (bool, error) {
	env, e, err := op.edge(ctx)
	if err != nil {
		return false, err
	}
	g := e.recvGroup
	ready, ack, err := g.poll(ctx.Iter, e.sub, env.Metrics)
	if err != nil {
		return false, env.edgeErr(g.key, err)
	}
	if ack != nil {
		// A batch landed and was copied out: ack the sender once, so it can
		// flush the next batch while these payloads are consumed. Posted
		// after poll released the group lock, because fin may fire before
		// AckRetryAsync returns. The ack is deliberately NOT wired to
		// ctx.Canceled: it must complete even if this iteration aborts,
		// because it is what marks the sender's batch slot reusable for the
		// next iteration. Canceling it on a mere step abort would set ackErr
		// — which is never cleared — and poison the group forever on a
		// healthy fabric; a genuinely dead fabric is still bounded by the
		// transfer deadline in env.opts.
		g.recv.AckRetryAsync(*ack, env.opts, func(err error) {
			if err != nil {
				g.mu.Lock()
				g.ackErr = err
				g.mu.Unlock()
			}
		})
	}
	return ready, nil
}

func (op *coalescedRecvOp) Compute(ctx *graph.Context) error {
	env, e, err := op.edge(ctx)
	if err != nil {
		return err
	}
	g := e.recvGroup
	g.mu.Lock()
	payload, ok := g.pending[e.sub]
	delete(g.pending, e.sub)
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: CoalescedRecv scheduled without its sub-message (edge %s)",
			ErrComm, op.spec.Key)
	}
	t, err := tensor.FromBytes(op.spec.Sig.DType, op.spec.Sig.Shape, payload)
	if err != nil {
		return err
	}
	env.recordRecv(e, len(payload))
	ctx.Output = t
	return nil
}
