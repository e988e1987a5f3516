package exec

import (
	"repro/internal/graph"
	"repro/internal/tensor"
)

// AllocPolicy decides where a node's k-th output allocation of an iteration
// lives. The default policy uses the Go heap; the RDMA-aware analyzer
// installs a policy that (a) records allocation sites during the first
// mini-batch and (b) redirects the sites feeding cross-server transfers
// into the registered-memory arena from the second mini-batch on (§3.4's
// dynamic tracing).
type AllocPolicy interface {
	Alloc(node *graph.Node, iter, allocIdx int, dt tensor.DType, shape tensor.Shape) (*tensor.Tensor, error)
	// Recyclable reports whether the executor may serve the allocation at
	// (node, allocIdx) in iteration iter by reusing the tensor it handed
	// out at the same site last iteration, bypassing Alloc. A site whose
	// allocations the policy must observe or place — the tracing
	// iteration, a site promoted into a staging slot or the registered
	// arena — answers false and goes through Alloc every time.
	Recyclable(node *graph.Node, iter, allocIdx int) bool
}

// HeapPolicy allocates every tensor on the Go heap.
type HeapPolicy struct{}

// Alloc implements AllocPolicy.
func (HeapPolicy) Alloc(_ *graph.Node, _, _ int, dt tensor.DType, shape tensor.Shape) (*tensor.Tensor, error) {
	return tensor.New(dt, shape...), nil
}

// Recyclable implements AllocPolicy: heap tensors carry no placement
// decision, so reusing one is always equivalent to allocating afresh.
func (HeapPolicy) Recyclable(*graph.Node, int, int) bool { return true }
