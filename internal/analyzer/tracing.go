package analyzer

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// ErrTrace wraps tracing-policy failures.
var ErrTrace = errors.New("analyzer: tracing error")

// site identifies one allocation site: the i-th allocation performed by a
// node's kernel within one iteration (§3.4: "the identification of the
// graph node and the id of the allocation of this node").
type site struct {
	nodeID   int
	allocIdx int
}

// TracingPolicy is the exec.AllocPolicy realizing §3.4's dynamic analysis:
//
//	iteration 0: every tensor is heap-allocated and its (node, alloc-index)
//	site recorded; send kernels call NoteTransfer for the tensors that
//	crossed servers, promoting their sites into the hot set S.
//
//	iteration ≥1: allocations at hot sites are redirected — to the bound
//	per-edge staging slot for statically placed edges (so the producing
//	kernel writes directly into the to-be-transferred buffer), or into the
//	RDMA-registered arena for dynamic edges (so the one-sided read needs no
//	sender copy). Everything else stays on the heap, and the executor
//	recycles those cold sites' tensors from one iteration to the next
//	(Recyclable): after the first mini-batch every allocation repeats.
//
// Setting Enabled to false disables the promotion entirely, producing the
// RDMA.cp ablation of §5.1/Figure 12 (every transfer needs a sender copy);
// then every site is cold from iteration 0 on.
type TracingPolicy struct {
	mu sync.Mutex

	arena   *alloc.Arena
	enabled bool

	curIter int
	sites   map[*tensor.Tensor]site
	hot     map[site]string // site -> source key (source node name)
	staging map[string]*tensor.Tensor
	bufOf   map[*tensor.Tensor]*alloc.Buffer
	byIter  map[int][]arenaEntry // arena allocations per iteration, freed after 2 iters
}

type arenaEntry struct {
	buf *alloc.Buffer
	t   *tensor.Tensor
}

// NewTracingPolicy builds a policy allocating promoted dynamic tensors from
// the given registered-memory arena. enabled=false yields the copy ablation.
func NewTracingPolicy(arena *alloc.Arena, enabled bool) *TracingPolicy {
	return &TracingPolicy{
		arena:   arena,
		enabled: enabled,
		sites:   make(map[*tensor.Tensor]site),
		hot:     make(map[site]string),
		staging: make(map[string]*tensor.Tensor),
		bufOf:   make(map[*tensor.Tensor]*alloc.Buffer),
		byIter:  make(map[int][]arenaEntry),
	}
}

// Enabled reports whether promotion is active.
func (p *TracingPolicy) Enabled() bool { return p.enabled }

// Alloc implements exec.AllocPolicy.
func (p *TracingPolicy) Alloc(node *graph.Node, iter, allocIdx int, dt tensor.DType, shape tensor.Shape) (*tensor.Tensor, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if iter != p.curIter {
		p.advanceLocked(iter)
	}
	if !p.enabled || iter == 0 {
		t := tensor.New(dt, shape...)
		if p.enabled {
			p.sites[t] = site{nodeID: node.ID(), allocIdx: allocIdx}
		}
		return t, nil
	}
	srcKey, isHot := p.hot[site{nodeID: node.ID(), allocIdx: allocIdx}]
	if !isHot {
		return tensor.New(dt, shape...), nil
	}
	if st, ok := p.staging[srcKey]; ok {
		if st.DType() != dt || !st.Shape().Equal(shape) {
			return nil, fmt.Errorf("%w: staging for %q is %v%v, allocation wants %v%v",
				ErrTrace, srcKey, st.DType(), st.Shape(), dt, shape)
		}
		return st, nil
	}
	// Dynamic edge: registered arena, falling back to the heap when full
	// (the transfer then pays a copy, it does not fail).
	buf, err := p.arena.Allocate(shape.NumElements() * dt.Size())
	if err != nil {
		return tensor.New(dt, shape...), nil
	}
	t, err := tensor.FromBytes(dt, shape, buf.Data)
	if err != nil {
		_ = p.arena.Free(buf)
		return nil, err
	}
	p.bufOf[t] = buf
	p.byIter[iter] = append(p.byIter[iter], arenaEntry{buf: buf, t: t})
	return t, nil
}

// Recyclable implements exec.AllocPolicy. The tracing iteration must see
// every allocation to record its site, and a hot site's tensor is a staging
// slot or an arena buffer the policy places itself, so only cold sites from
// iteration 1 on — or every site when promotion is off — are recycled.
func (p *TracingPolicy) Recyclable(node *graph.Node, iter, allocIdx int) bool {
	if !p.enabled {
		return true
	}
	if iter == 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if iter != p.curIter {
		p.advanceLocked(iter)
	}
	_, isHot := p.hot[site{nodeID: node.ID(), allocIdx: allocIdx}]
	return !isHot
}

// advanceLocked moves the iteration cursor, releasing arena buffers that
// are at least two iterations old (by then the synchronous training step
// guarantees their remote reads completed) and dropping iteration-0
// bookkeeping once tracing concluded.
func (p *TracingPolicy) advanceLocked(iter int) {
	p.curIter = iter
	if iter >= 1 && len(p.sites) > 0 {
		p.sites = make(map[*tensor.Tensor]site)
	}
	for it, entries := range p.byIter {
		if it <= iter-2 {
			for _, e := range entries {
				_ = p.arena.Free(e.buf)
				delete(p.bufOf, e.t)
			}
			delete(p.byIter, it)
		}
	}
}

// NoteTransfer marks a transferred tensor's allocation site as hot; send
// kernels call it during the first iteration. srcKey is the producing
// node's name, shared by all edges fanning out of it.
func (p *TracingPolicy) NoteTransfer(t *tensor.Tensor, srcKey string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.sites[t]; ok {
		p.hot[s] = srcKey
	}
}

// BindStaging routes future hot allocations for srcKey to the given tensor
// (a view over a per-edge registered staging slot). Called by the
// communication backend during setup or after tracing resolves.
func (p *TracingPolicy) BindStaging(srcKey string, t *tensor.Tensor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.staging[srcKey] = t
}

// LookupRegistered reports the arena buffer backing t, if any; dynamic-edge
// send kernels use it to transfer straight out of the tensor's storage.
func (p *TracingPolicy) LookupRegistered(t *tensor.Tensor) (*alloc.Buffer, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.bufOf[t]
	return b, ok
}

// HotSites reports how many allocation sites tracing promoted (tests and
// the harness assert on it).
func (p *TracingPolicy) HotSites() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.hot)
}
