// Package analyzer implements the paper's RDMA-aware graph analysis (§3.4):
//
//   - Partition splits a task-annotated data-flow graph across servers,
//     replacing every cross-server edge with a Send/Recv operator pair
//     supplied by the communication mechanism. Static shape inference has
//     already run during graph construction (signatures carry staticness),
//     so the partitioner can report per edge whether the static-placement
//     (§3.2) or dynamic-allocation (§3.3) transfer applies.
//   - TracingPolicy implements allocation-site dynamic tracing: during the
//     first mini-batch it records which (node, allocation-index) sites
//     produced the tensors that crossed servers; from the second mini-batch
//     on, those sites allocate directly in RDMA-registered memory — a
//     pre-bound per-edge staging slot for static edges, the registered
//     arena for dynamic ones — so transfers need no sender-side copy.
package analyzer

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// ErrPartition wraps partitioning failures.
var ErrPartition = errors.New("analyzer: partition error")

// EdgeSpec describes one cross-server tensor edge.
type EdgeSpec struct {
	// Key uniquely identifies the edge: "<srcNode>-><dstTask>".
	Key string
	// SrcNode is the producing node's name.
	SrcNode string
	// SrcTask and DstTask are the server assignments of the two ends.
	SrcTask, DstTask string
	// Sig is the transferred tensor's signature; Sig.Static selects the
	// static-placement protocol, otherwise the dynamic one.
	Sig graph.Sig
	// ID is the edge's index in Result.Edges: a dense id both ends know
	// without an exchange, so a runtime can index per-edge state by it.
	ID int
}

// CommFactory builds the Send and Recv operators for one edge. The send op
// receives the source tensor as its single input; the recv op has no inputs
// and must produce the transferred tensor.
type CommFactory func(spec EdgeSpec) (send graph.Op, recv graph.Op, err error)

// Result is a partitioned graph plus its cross-server edge inventory.
type Result struct {
	Graph *graph.Graph
	Edges []EdgeSpec
	Tasks []string
}

// StaticEdges returns the edges using the static-placement protocol.
func (r *Result) StaticEdges() []EdgeSpec {
	var out []EdgeSpec
	for _, e := range r.Edges {
		if e.Sig.Static {
			out = append(out, e)
		}
	}
	return out
}

// DynamicEdges returns the edges using the dynamic-allocation protocol.
func (r *Result) DynamicEdges() []EdgeSpec {
	var out []EdgeSpec
	for _, e := range r.Edges {
		if !e.Sig.Static {
			out = append(out, e)
		}
	}
	return out
}

// Option customizes Partition.
type Option func(*options)

type options struct {
	postHook func(b *graph.Builder, edges []EdgeSpec, sends map[string]*graph.Node) error
}

// WithPostHook runs fn after Send/Recv insertion but before the graph is
// finalized; sends maps edge keys to the inserted send nodes. The
// distributed runtime uses it to add control dependencies (e.g. weight
// sends before in-place SGD updates).
func WithPostHook(fn func(b *graph.Builder, edges []EdgeSpec, sends map[string]*graph.Node) error) Option {
	return func(o *options) { o.postHook = fn }
}

// Summary renders a human-readable partition overview: per-task node
// counts and per-edge byte volumes (the analyzer's output a user audits).
func (r *Result) Summary() string {
	var sb strings.Builder
	perTask := make(map[string]int)
	for _, n := range r.Graph.Nodes() {
		perTask[n.Task()]++
	}
	fmt.Fprintf(&sb, "partition: %d tasks, %d nodes, %d cross-server edges (%d static, %d dynamic)\n",
		len(r.Tasks), len(r.Graph.Nodes()), len(r.Edges),
		len(r.StaticEdges()), len(r.DynamicEdges()))
	for _, task := range r.Tasks {
		fmt.Fprintf(&sb, "  %-12s %4d nodes\n", task, perTask[task])
	}
	var staticBytes int64
	for _, e := range r.StaticEdges() {
		staticBytes += int64(e.Sig.ByteSize())
	}
	fmt.Fprintf(&sb, "  static edge payload per iteration: %d bytes\n", staticBytes)
	return sb.String()
}

// Partition rewrites the builder's graph so every cross-server data edge
// flows through a Send/Recv pair, then finishes and returns the graph.
// Control dependencies may not cross servers.
func Partition(b *graph.Builder, factory CommFactory, opts ...Option) (*Result, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return partition(b, factory, o)
}

func partition(b *graph.Builder, factory CommFactory, o options) (*Result, error) {
	if b.Err() != nil {
		return nil, b.Err()
	}
	type pend struct {
		node *graph.Node
		idx  int
	}
	nodes := snapshotNodes(b)
	tasks := map[string]bool{}
	edgeRecv := map[string]*graph.Node{}
	edgeSend := map[string]*graph.Node{}
	rewires := map[string][]pend{}
	// Result.Edges is in key order, and an edge's id is its rank in it.
	ids := map[string]int{}
	for _, n := range nodes {
		for _, in := range n.Inputs() {
			if in.Task() != n.Task() {
				ids[edgeKey(in.Name(), n.Task())] = 0
			}
		}
	}
	keys := make([]string, 0, len(ids))
	for key := range ids {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for id, key := range keys {
		ids[key] = id
	}
	edges := make([]EdgeSpec, len(keys))

	for _, n := range nodes {
		tasks[n.Task()] = true
		for _, c := range n.Controls() {
			if c.Task() != n.Task() {
				return nil, fmt.Errorf("analyzer: control edge %s -> %s crosses servers: %w",
					c.Name(), n.Name(), ErrPartition)
			}
		}
		for i, in := range n.Inputs() {
			if in.Task() == n.Task() {
				continue
			}
			key := edgeKey(in.Name(), n.Task())
			if _, ok := edgeRecv[key]; !ok {
				spec := EdgeSpec{
					Key:     key,
					SrcNode: in.Name(),
					SrcTask: in.Task(),
					DstTask: n.Task(),
					Sig:     in.Sig(),
					ID:      ids[key],
				}
				sendOp, recvOp, err := factory(spec)
				if err != nil {
					return nil, fmt.Errorf("analyzer: edge %s: %w", key, err)
				}
				prevTask := b.Task()
				b.OnTask(spec.SrcTask)
				send := b.AddNode("send/"+key, sendOp, in)
				b.OnTask(spec.DstTask)
				recv := b.AddNode("recv/"+key, recvOp)
				b.OnTask(prevTask)
				if send == nil || recv == nil {
					return nil, b.Err()
				}
				edgeRecv[key] = recv
				edgeSend[key] = send
				edges[spec.ID] = spec
			}
			rewires[key] = append(rewires[key], pend{node: n, idx: i})
		}
	}
	for key, list := range rewires {
		recv := edgeRecv[key]
		for _, p := range list {
			if err := b.RewireInput(p.node, p.idx, recv); err != nil {
				return nil, err
			}
		}
	}
	if o.postHook != nil {
		if err := o.postHook(b, edges, edgeSend); err != nil {
			return nil, err
		}
	}
	g, err := b.Finish()
	if err != nil {
		return nil, err
	}
	taskList := make([]string, 0, len(tasks))
	for t := range tasks {
		taskList = append(taskList, t)
	}
	sort.Strings(taskList)
	return &Result{Graph: g, Edges: edges, Tasks: taskList}, nil
}

func edgeKey(srcNode, dstTask string) string { return srcNode + "->" + dstTask }

// snapshotNodes copies the current node list; Partition appends nodes while
// iterating, so it must work over a stable snapshot.
func snapshotNodes(b *graph.Builder) []*graph.Node {
	return b.Nodes()
}
