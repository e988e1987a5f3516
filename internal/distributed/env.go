package distributed

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/analyzer"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/rpc"
	"repro/internal/tensor"
)

// Errors of the distributed runtime.
var (
	ErrSetup = errors.New("distributed: setup error")
	ErrComm  = errors.New("distributed: communication error")
	// ErrEdgeTimeout is returned when a transfer edge exhausts its retry
	// budget or deadline: the fault did not heal in time and the step is
	// failed with a diagnostic instead of hanging the scheduler. It wraps
	// the underlying cause (e.g. rdma.ErrUnreachable), visible to errors.Is.
	ErrEdgeTimeout = errors.New("distributed: edge transfer deadline exceeded")
)

// Env is one server's communication environment; send/recv kernels reach it
// through graph.Context.Env.
type Env struct {
	Task    string
	Kind    Kind
	Policy  *analyzer.TracingPolicy
	Metrics *metrics.Comm
	// Hists receives per-edge observability distributions (sent/recv bytes,
	// transfer latency), recorded at exactly the same call sites as the Comm
	// counters so the two stay consistent. Nil disables recording (all
	// histogram types are nil-safe).
	Hists *metrics.Set
	// Xfer bounds every edge transfer (deadline, retry budget, backoff).
	// The zero value selects the rdma package defaults.
	Xfer rdma.TransferOpts
	// opts is Xfer with the metrics hooks wired in, built once; per-edge
	// copies add the edge's completion hook at edge setup.
	opts rdma.TransferOpts

	arena   *alloc.Arena
	arenaMR *rdma.MemRegion

	mu         sync.Mutex
	staticSend map[string]*staticSendState
	staticRecv map[string]*staticRecvState
	dynSend    map[string]*dynSendState
	dynRecv    map[string]*dynRecvState
	stagings   map[string]*stagingSlot // by source node name
	rpcClients map[string]*rpc.Client  // by destination task
	mailboxes  map[string]*mailbox     // by edge key

	// Small-message coalescing: per-peer batch groups plus the per-edge
	// membership records the send/recv kernels look up.
	coalSendGroups map[string]*coalSendGroup // by pair key
	coalRecvGroups map[string]*coalRecvGroup // by pair key
	coalSendEdges  map[string]*coalSendEdge  // by edge key
	coalRecvEdges  map[string]*coalRecvEdge  // by edge key
}

func newEnv(task string, kind Kind, pol *analyzer.TracingPolicy, m *metrics.Comm,
	xfer rdma.TransferOpts, arena *alloc.Arena, arenaMR *rdma.MemRegion) *Env {
	e := &Env{
		Task: task, Kind: kind, Policy: pol, Metrics: m, Xfer: xfer,
		arena: arena, arenaMR: arenaMR,
		staticSend: make(map[string]*staticSendState),
		staticRecv: make(map[string]*staticRecvState),
		dynSend:    make(map[string]*dynSendState),
		dynRecv:    make(map[string]*dynRecvState),
		stagings:   make(map[string]*stagingSlot),
		rpcClients: make(map[string]*rpc.Client),
		mailboxes:  make(map[string]*mailbox),

		coalSendGroups: make(map[string]*coalSendGroup),
		coalRecvGroups: make(map[string]*coalRecvGroup),
		coalSendEdges:  make(map[string]*coalSendEdge),
		coalRecvEdges:  make(map[string]*coalRecvEdge),
	}
	// The hooks read e.Metrics at call time: a restarted task's Env takes
	// over its predecessor's counters after construction.
	e.opts = xfer
	e.opts.OnRetry = func(error) { e.Metrics.AddRetry() }
	e.opts.OnStripe = func(lane, n int) { e.Metrics.AddStripe(lane, n) }
	e.opts.OnDoorbell = func(lane, chunks int) { e.Metrics.AddDoorbellFlush() }
	e.opts.OnRetransmit = func(chunks int) { e.Metrics.AddRetransmit(chunks) }
	return e
}

// coalSendGroup is the sender side of one peer pair's coalesced batch: all
// below-threshold static edges to that peer stage into one slot, and the
// last stager of an iteration flushes the batch. The mutex is held across
// the blocking flush so the next iteration's stagers cannot touch the batch
// buffer while the write is in flight.
type coalSendGroup struct {
	key     string
	sender  *rdma.CoalescedSender
	members int               // sub-messages per full batch
	opts    rdma.TransferOpts // Env.edgeOpts(key)

	mu      sync.Mutex
	iter    int // iteration the staged batch belongs to
	staged  int
	waiters []func(error)
}

// failPending fails every waiter parked on the group's partially staged
// batch and resets the batch for the next iteration. Called when the
// iteration that staged them can no longer fill the batch — a run abort
// (via Env.FailPending) or an edge teardown before a recovery rebuild.
func (g *coalSendGroup) failPending(err error) {
	g.mu.Lock()
	waiters := g.waiters
	g.waiters, g.staged = nil, 0
	if len(waiters) > 0 {
		g.sender.Reset()
	}
	g.mu.Unlock()
	for _, w := range waiters {
		w(err)
	}
}

// coalRecvGroup is the receiver side: one batch slot whose arrival satisfies
// every member edge's recv kernel. Arrived payloads are copied out of the
// slot under the lock, the slot is consumed immediately, and the reuse ack
// is posted once per batch.
type coalRecvGroup struct {
	key  string
	recv *rdma.CoalescedReceiver

	mu        sync.Mutex
	senderAck rdma.DynSlotDesc // pushed by the sender during setup
	haveAck   bool
	iter      int               // iteration the pending payloads belong to
	pending   map[uint32][]byte // arrived sub-messages awaiting their kernels
	ackErr    error             // a failed reuse ack poisons the group
}

// coalSendEdge / coalRecvEdge bind one graph edge to its group slot.
type coalSendEdge struct {
	spec  analyzer.EdgeSpec
	group *coalSendGroup
	id    uint32
}

type coalRecvEdge struct {
	spec  analyzer.EdgeSpec
	group *coalRecvGroup
	id    uint32
}

// stagingSlot is a sender-side registered buffer shaped like one tensor
// plus the tail flag word; when graph analysis is on, the source tensor is
// produced directly inside it (variables at setup, transient tensors via
// allocation-site tracing).
type stagingSlot struct {
	mr     *rdma.MemRegion
	tensor *tensor.Tensor // aliases mr payload bytes
	// sendMu serializes copy-then-write sequences: edges fanning out of one
	// source share the slot, and a bounce copy (RDMA.cp path, or the
	// tracing iteration) must not overwrite bytes an in-flight sibling
	// write is still reading.
	sendMu sync.Mutex
}

// newStagingSlot registers a slot for one static payload.
func newStagingSlot(dev *rdma.Device, dt tensor.DType, shape tensor.Shape) (*stagingSlot, error) {
	payload := shape.NumElements() * dt.Size()
	mr, err := dev.AllocateMemRegion(rdma.StaticSlotSize(payload))
	if err != nil {
		return nil, err
	}
	t, err := tensor.FromBytes(dt, shape, mr.Bytes()[:payload])
	if err != nil {
		return nil, err
	}
	return &stagingSlot{mr: mr, tensor: t}, nil
}

// staticSender is a static edge's send protocol: *rdma.StaticSender, or
// on a lossy fabric (Config.LossyFabric) the *rdma.LossySender policy
// over it. A nil payload sends the staging slot as it is (zero-copy).
type staticSender interface {
	SendRetryFromAsync(payload []byte, opts rdma.TransferOpts, fin func(error))
}

// staticReceiver is the matching receive side: *rdma.StaticReceiver or
// *rdma.LossyReceiver.
type staticReceiver interface {
	Desc() rdma.StaticSlotDesc
	Poll() bool
	Payload() []byte
	Consume()
}

type staticSendState struct {
	spec   analyzer.EdgeSpec
	slot   *stagingSlot
	sender staticSender
	opts   rdma.TransferOpts // Env.edgeOpts(spec.Key)
}

type staticRecvState struct {
	spec analyzer.EdgeSpec
	recv staticReceiver
}

type dynSendState struct {
	spec    analyzer.EdgeSpec
	opts    rdma.TransferOpts // Env.edgeOpts(spec.Key)
	sender  *rdma.DynSender
	dev     *rdma.Device
	scratch *rdma.MemRegion // copy fallback payload area, grown on demand
}

type dynRecvState struct {
	spec          analyzer.EdgeSpec
	opts          rdma.TransferOpts // Env.edgeOpts(spec.Key)
	recv          *rdma.DynReceiver
	senderScratch rdma.DynSlotDesc

	mu      sync.Mutex
	meta    rdma.DynMeta // pending metadata between Poll and Compute
	hasMeta bool
	// deferred arena frees: buffers become reusable two iterations later.
	pendingFree []pendingBuf
}

type pendingBuf struct {
	iter int
	buf  *alloc.Buffer
}

// deferFree schedules a receive buffer for release and frees buffers at
// least two iterations old — by then the synchronous training step
// guarantees every consumer of the received tensor has finished.
func (st *dynRecvState) deferFree(iter int, buf *alloc.Buffer, env *Env) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pendingFree = append(st.pendingFree, pendingBuf{iter: iter, buf: buf})
	keep := st.pendingFree[:0]
	for _, p := range st.pendingFree {
		if p.iter <= iter-2 {
			_ = env.arena.Free(p.buf)
		} else {
			keep = append(keep, p)
		}
	}
	st.pendingFree = keep
}

// mailbox carries tensors for one RPC edge from the service handler to the
// recv kernel. Poll moves an arrived item into the stash; Compute takes it.
type mailbox struct {
	ch chan mailboxItem

	mu      sync.Mutex
	stashed mailboxItem
	hasItem bool
}

type mailboxItem struct {
	seq int
	t   *tensor.Tensor
}

func newMailbox() *mailbox { return &mailbox{ch: make(chan mailboxItem, 4)} }

func (mb *mailbox) stash(item mailboxItem) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.stashed, mb.hasItem = item, true
}

func (mb *mailbox) takeStash() (mailboxItem, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	item, ok := mb.stashed, mb.hasItem
	mb.hasItem = false
	return item, ok
}

// edgeOpts returns the server's transfer opts with the edge's
// transfer-latency histogram wired into the completion hook. Edge setup
// calls it once per edge and keeps the result on the edge state.
func (e *Env) edgeOpts(key string) rdma.TransferOpts {
	o := e.opts
	if e.Hists != nil {
		h := e.Hists.Family(metrics.HistEdgeXferNs).With(key)
		o.OnComplete = func(bytes int, d time.Duration) { h.Record(d.Nanoseconds()) }
	}
	return o
}

// recordSent pairs the sent-bytes counter with the edge's sent-bytes
// histogram: same value, same call site, so histogram sums always equal the
// counter and histogram counts always equal the message count.
func (e *Env) recordSent(key string, n int) {
	e.Metrics.AddSent(n)
	e.Hists.Family(metrics.HistEdgeSentBytes).With(key).Record(int64(n))
}

// recordRecv is recordSent's receive-side twin.
func (e *Env) recordRecv(key string, n int) {
	e.Metrics.AddRecv(n)
	e.Hists.Family(metrics.HistEdgeRecvBytes).With(key).Record(int64(n))
}

// FailPending fails asynchronous completions parked in this environment
// waiting for work a dead iteration will never produce — coalesce-group
// members staged into a batch whose remaining members were never
// dispatched. exec.Run calls it (through an interface assertion on
// Config.Env) after a failed run's workers exit, which is what keeps the
// run's in-flight drain bounded: parked waiters have no retry loop polling
// the cancel flag on their behalf.
func (e *Env) FailPending(cause error) {
	e.mu.Lock()
	groups := make([]*coalSendGroup, 0, len(e.coalSendGroups))
	for _, g := range e.coalSendGroups {
		groups = append(groups, g)
	}
	e.mu.Unlock()
	for _, g := range groups {
		g.failPending(e.edgeErr(g.key, fmt.Errorf("coalesce batch abandoned: %w", cause)))
	}
}

// edgeErr classifies a transfer failure for the scheduler: an exhausted
// retry budget becomes the typed edge timeout (counted in the metrics);
// everything else passes through with edge context attached.
func (e *Env) edgeErr(key string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, rdma.ErrTimeout) {
		e.Metrics.AddTimeout()
		return fmt.Errorf("%w: edge %s on %s: %w", ErrEdgeTimeout, key, e.Task, err)
	}
	return fmt.Errorf("distributed: edge %s on %s: %w", key, e.Task, err)
}

func (e *Env) staticSendState(key string) (*staticSendState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.staticSend[key]
	if !ok {
		return nil, fmt.Errorf("%w: static send edge %q not set up on %s", ErrComm, key, e.Task)
	}
	return st, nil
}

func (e *Env) staticRecvState(key string) (*staticRecvState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.staticRecv[key]
	if !ok {
		return nil, fmt.Errorf("%w: static recv edge %q not set up on %s", ErrComm, key, e.Task)
	}
	return st, nil
}

func (e *Env) dynSendState(key string) (*dynSendState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.dynSend[key]
	if !ok {
		return nil, fmt.Errorf("%w: dynamic send edge %q not set up on %s", ErrComm, key, e.Task)
	}
	return st, nil
}

func (e *Env) dynRecvState(key string) (*dynRecvState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.dynRecv[key]
	if !ok {
		return nil, fmt.Errorf("%w: dynamic recv edge %q not set up on %s", ErrComm, key, e.Task)
	}
	return st, nil
}

func (e *Env) coalSendEdge(key string) (*coalSendEdge, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.coalSendEdges[key]
	if !ok {
		return nil, fmt.Errorf("%w: coalesced send edge %q not set up on %s", ErrComm, key, e.Task)
	}
	return m, nil
}

func (e *Env) coalRecvEdge(key string) (*coalRecvEdge, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.coalRecvEdges[key]
	if !ok {
		return nil, fmt.Errorf("%w: coalesced recv edge %q not set up on %s", ErrComm, key, e.Task)
	}
	return m, nil
}

// installBack records the sender word a receiver answers into, on
// whichever receive state is registered under key: a dynamic edge's
// scratch block (its reuse ack), a coalesce group's ack word, or a lossy
// edge's NACK block.
func (e *Env) installBack(key string, back rdma.DynSlotDesc) error {
	e.mu.Lock()
	dyn, group, static := e.dynRecv[key], e.coalRecvGroups[key], e.staticRecv[key]
	e.mu.Unlock()
	switch {
	case dyn != nil:
		dyn.mu.Lock()
		dyn.senderScratch = back
		dyn.mu.Unlock()
	case group != nil:
		group.mu.Lock()
		group.senderAck, group.haveAck = back, true
		group.mu.Unlock()
	case static != nil:
		lr, ok := static.recv.(*rdma.LossyReceiver)
		if !ok {
			return fmt.Errorf("%w: edge %q on %s is not lossy", ErrSetup, key, e.Task)
		}
		lr.SetSenderScratch(back)
	default:
		return fmt.Errorf("%w: no receiver for edge %q on %s", ErrSetup, key, e.Task)
	}
	return nil
}

func (e *Env) client(task string) (*rpc.Client, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.rpcClients[task]
	if !ok {
		return nil, fmt.Errorf("%w: no RPC client for task %q on %s", ErrComm, task, e.Task)
	}
	return c, nil
}

func (e *Env) mailbox(key string) *mailbox {
	e.mu.Lock()
	defer e.mu.Unlock()
	mb, ok := e.mailboxes[key]
	if !ok {
		mb = newMailbox()
		e.mailboxes[key] = mb
	}
	return mb
}
