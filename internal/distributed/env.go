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
	// opts is Xfer with the metrics hooks wired in, built once; each edge
	// copies it and adds its completion hook at plan time.
	opts rdma.TransferOpts

	arena   *alloc.Arena
	arenaMR *rdma.MemRegion

	// edges is this server's end of every cross-server edge, indexed by
	// EdgeSpec.ID (nil where an edge does not touch this server): an op
	// finds its state with one index, no lock and no string. Setup fills
	// the table before any step runs over it, and nothing writes it after.
	// teardownEdges installs a fresh table instead of mutating this one, so
	// a late completion from an aborted step still holds valid state.
	edges []*edge
	// byName resolves the names that arrive off the wire (edge.desc,
	// edge.back, tensor.push) to receive ends: edge keys, plus each
	// coalesce group's key mapped to its first member. Built with edges.
	byName map[string]*edge
	// sendGroups are the coalesce batches this server stages into.
	sendGroups []*coalSendGroup
}

func newEnv(task string, kind Kind, pol *analyzer.TracingPolicy, m *metrics.Comm,
	xfer rdma.TransferOpts, arena *alloc.Arena, arenaMR *rdma.MemRegion) *Env {
	e := &Env{
		Task: task, Kind: kind, Policy: pol, Metrics: m, Xfer: xfer,
		arena: arena, arenaMR: arenaMR,
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

// edgeKind is the protocol an edge runs. kindOf derives it once per edge,
// for the op factory and for plan alike.
type edgeKind uint8

const (
	staticEdge edgeKind = iota // §3.2 slot: payload, then the tail flag
	lossyEdge                  // a static slot under per-chunk selective retransmit
	dynEdge                    // §3.3 metadata write, receiver allocation, one-sided read
	coalEdge                   // one sub-message of its task pair's coalesced batch
	rpcEdge                    // the gRPC baselines' serialized tensor push
)

// edge is one server's end of one cross-server edge, resolved once at
// setup. Which fields are set depends on the kind and the end; fields that
// change while steps run have their own lock (mu here, the group's, the
// staging slot's, the mailbox's).
type edge struct {
	spec analyzer.EdgeSpec
	kind edgeKind
	// opts is the server's transfer opts with xfer wired into OnComplete,
	// on the ends that transfer (static, lossy and dyn send ends, dyn
	// receive ends; a coalesced batch uses its group's).
	opts rdma.TransferOpts
	// sent, recvd and xfer are the edge's byte and transfer-latency
	// histograms; an end holds only those it records (nil ones are no-ops).
	sent, recvd, xfer *metrics.Histogram
	// desc is a receive end's marshaled slot descriptor, which the sender
	// fetches by name (edge.desc).
	desc []byte

	slot   *stagingSlot   // static/lossy send end: the shared source slot
	sender staticSender   // static/lossy send end
	recv   staticReceiver // static/lossy receive end

	dynSend *rdma.DynSender
	dev     *rdma.Device    // dyn send end: where scratch lives
	scratch *rdma.MemRegion // dyn send end: copy-fallback payload area, grown on demand
	dynRecv *rdma.DynReceiver

	mu          sync.Mutex       // guards the dyn receive end's fields below
	back        rdma.DynSlotDesc // the sender's scratch block (reuse ack target)
	meta        rdma.DynMeta     // pending metadata between Poll and Compute
	hasMeta     bool
	pendingFree []pendingBuf // deferred arena frees, reusable two iterations later

	sendGroup *coalSendGroup // coalesced send end
	recvGroup *coalRecvGroup // coalesced receive end
	sub       uint32         // sub-message id in the batch, by position in the group

	client *rpc.Client // rpc send end, shared per destination task
	mb     *mailbox    // rpc receive end
}

// tensorID is the non-zero identity the lossy protocol tags every chunk
// with. Both ends derive it from the dense edge id, so no exchange is needed.
func (e *edge) tensorID() uint64 { return uint64(e.spec.ID) + 1 }

// installBack records the sender word this receive end answers into: a dyn
// edge's scratch block (its reuse ack), a coalesce group's ack word, or a
// lossy edge's NACK block.
func (e *edge) installBack(back rdma.DynSlotDesc) error {
	lr, lossy := e.recv.(*rdma.LossyReceiver)
	switch {
	case e.kind == dynEdge:
		e.mu.Lock()
		e.back = back
		e.mu.Unlock()
	case e.kind == coalEdge:
		g := e.recvGroup
		g.mu.Lock()
		g.senderAck, g.haveAck = back, true
		g.mu.Unlock()
	case lossy:
		lr.SetSenderScratch(back)
	default:
		return fmt.Errorf("%w: edge %q answers no sender word", ErrSetup, e.spec.Key)
	}
	return nil
}

// deferFree schedules a receive buffer for release and frees buffers at
// least two iterations old — by then the synchronous training step
// guarantees every consumer of the received tensor has finished.
func (e *edge) deferFree(iter int, buf *alloc.Buffer, arena *alloc.Arena) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pendingFree = append(e.pendingFree, pendingBuf{iter: iter, buf: buf})
	keep := e.pendingFree[:0]
	for _, p := range e.pendingFree {
		if p.iter <= iter-2 {
			_ = arena.Free(p.buf)
		} else {
			keep = append(keep, p)
		}
	}
	e.pendingFree = keep
}

type pendingBuf struct {
	iter int
	buf  *alloc.Buffer
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
	opts    rdma.TransferOpts // with the group's transfer-latency histogram

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
	key      string
	recv     *rdma.CoalescedReceiver
	capacity int // batch framing bytes for a full batch

	mu        sync.Mutex
	senderAck rdma.DynSlotDesc // pushed by the sender during setup
	haveAck   bool
	iter      int               // iteration the pending payloads belong to
	pending   map[uint32][]byte // arrived sub-messages awaiting their kernels
	ackErr    error             // a failed reuse ack poisons the group
}

// poll is one member's poll under the group lock. When a batch has landed
// it copies every sub-message out of the slot (the decoded payloads alias
// it), consumes the slot, and returns the sender's ack word for the caller
// to post once the lock is released. senderAck is written once at setup,
// so the returned pointer stays valid and unchanged.
func (g *coalRecvGroup) poll(iter int, sub uint32, m *metrics.Comm) (ready bool, ack *rdma.DynSlotDesc, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ackErr != nil {
		return false, nil, g.ackErr
	}
	if g.iter != iter {
		// Payloads left over from a step that failed before every member
		// consumed its sub-message: that batch was already acked, so drop it.
		clear(g.pending)
		g.iter = iter
	}
	if _, ok := g.pending[sub]; ok {
		return true, nil, nil
	}
	if !g.recv.Poll() {
		return false, nil, nil
	}
	msgs, err := g.recv.Messages()
	if err != nil {
		return false, nil, err
	}
	for _, s := range msgs {
		g.pending[s.ID] = append([]byte(nil), s.Payload...)
		m.AddCopy(len(s.Payload))
	}
	g.recv.Consume()
	if !g.haveAck {
		return false, nil, fmt.Errorf("%w: coalesce group %s has no sender ack descriptor", ErrComm, g.key)
	}
	_, ready = g.pending[sub]
	return ready, &g.senderAck, nil
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

// edgeOpts returns the server's transfer opts with name's transfer-latency
// histogram wired into the completion hook, and that histogram.
func (env *Env) edgeOpts(name string) (rdma.TransferOpts, *metrics.Histogram) {
	o := env.opts
	h := env.Hists.Family(metrics.HistEdgeXferNs).With(name)
	if h != nil {
		o.OnComplete = func(bytes int, d time.Duration) { h.Record(d.Nanoseconds()) }
	}
	return o, h
}

// recordSent pairs the sent-bytes counter with the edge's sent-bytes
// histogram: same value, same call site, so histogram sums always equal the
// counter and histogram counts always equal the message count.
func (env *Env) recordSent(e *edge, n int) {
	env.Metrics.AddSent(n)
	e.sent.Record(int64(n))
}

// recordRecv is recordSent's receive-side twin.
func (env *Env) recordRecv(e *edge, n int) {
	env.Metrics.AddRecv(n)
	e.recvd.Record(int64(n))
}

// named resolves a name that arrived off the wire to its receive end.
func (env *Env) named(name string) (*edge, error) {
	if e := env.byName[name]; e != nil {
		return e, nil
	}
	return nil, fmt.Errorf("%w: no receive end named %q on %s", ErrSetup, name, env.Task)
}

// FailPending fails asynchronous completions parked in this environment
// waiting for work a dead iteration will never produce — coalesce-group
// members staged into a batch whose remaining members were never
// dispatched. exec.Run calls it (through an interface assertion on
// Config.Env) after a failed run's workers exit, which is what keeps the
// run's in-flight drain bounded: parked waiters have no retry loop polling
// the cancel flag on their behalf.
func (env *Env) FailPending(cause error) {
	for _, g := range env.sendGroups {
		g.failPending(env.edgeErr(g.key, fmt.Errorf("coalesce batch abandoned: %w", cause)))
	}
}

// edgeErr classifies a transfer failure for the scheduler: an exhausted
// retry budget becomes the typed edge timeout (counted in the metrics);
// everything else passes through with edge context attached.
func (env *Env) edgeErr(key string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, rdma.ErrTimeout) {
		env.Metrics.AddTimeout()
		return fmt.Errorf("%w: edge %s on %s: %w", ErrEdgeTimeout, key, env.Task, err)
	}
	return fmt.Errorf("distributed: edge %s on %s: %w", key, env.Task, err)
}
