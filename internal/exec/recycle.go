package exec

import (
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Iteration-scoped output recycling. Training runs the same partition every
// mini-batch, so the k-th allocation of node n has the same dtype and shape
// iteration after iteration; once iteration i finishes, iteration i-1's
// tensors are garbage. Each node context keeps its allocations by alloc
// index and hands last iteration's tensor back instead of allocating,
// zeroed so kernels observe exactly the tensor.New contract.
//
// Safety rules:
//   - Recycling is decided per site by AllocPolicy.Recyclable. The
//     analyzer's tracing policy sees every allocation of the tracing
//     iteration and every allocation at a hot site (staging slots, arena
//     buffers); only cold heap sites are recycled.
//   - Only tensors obtained through ctx.Alloc at a recyclable site
//     participate. Pass-through outputs (Identity, Variable, Const,
//     Reshape) and VarStore tensors never enter the cache.
//   - Tensors whose storage escapes the iteration through a fetch are
//     excluded by backing-buffer identity, which also covers a fetched
//     Reshape view of an allocated tensor.
//   - A failed iteration retires its tensors: kernels may still hold them.
//
// A node's slots are touched only by the kernel executing it, and
// finishRecycle runs after every node of the run completed, so the slots
// need no lock.

// take serves an allocation from the previous iteration's tensor at idx, or
// nil on miss. Hits are zeroed before reuse; shape or dtype mismatches (a
// resized graph input) drop the stale tensor.
func (nc *nodeCtx) take(idx int, dt tensor.DType, shape tensor.Shape) *tensor.Tensor {
	if idx >= len(nc.prev) {
		return nil
	}
	t := nc.prev[idx]
	nc.prev[idx] = nil
	if t == nil || t.DType() != dt || !t.Shape().Equal(shape) {
		return nil
	}
	nc.track(idx, t)
	t.Zero()
	metrics.AddRecycleHit()
	return t
}

// track records a tensor as this iteration's occupant of idx, making it a
// candidate for reuse next iteration.
func (nc *nodeCtx) track(idx int, t *tensor.Tensor) {
	for len(nc.cur) <= idx {
		nc.cur = append(nc.cur, nil)
	}
	nc.cur[idx] = t
	if len(nc.prev) < len(nc.cur) {
		nc.prev = append(nc.prev, make([]*tensor.Tensor, len(nc.cur)-len(nc.prev))...)
	}
}

// finishRecycle ends an iteration. On success each node's tensors become its
// next cache, minus any whose storage a fetched tensor aliases. On failure
// everything from the iteration is retired — a failed kernel may still
// reference its buffers.
func (e *Executor) finishRecycle(ok bool, fetched []*tensor.Tensor) {
	for _, n := range e.nodes {
		nc := e.ctxs[n.ID()]
		for idx, t := range nc.cur {
			if t == nil {
				continue
			}
			nc.cur[idx] = nil
			if ok && !escapes(t, fetched) {
				nc.prev[idx] = t
			}
		}
	}
}

func escapes(t *tensor.Tensor, fetched []*tensor.Tensor) bool {
	for _, f := range fetched {
		if f != nil && t.SharesStorage(f) {
			return true
		}
	}
	return false
}
