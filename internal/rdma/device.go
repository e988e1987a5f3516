package rdma

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Op identifies the direction of a one-sided transfer relative to the
// issuing device.
type Op uint8

const (
	// OpWrite pushes local bytes into the remote region (RDMA write).
	OpWrite Op = iota
	// OpRead pulls remote bytes into the local region (RDMA read).
	OpRead
)

func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// Config parameterizes CreateDevice. Zero values select the defaults the
// paper's evaluation uses (4 CQs per device, 4 QPs per peer, following the
// guidelines in Kalia et al.).
type Config struct {
	// Endpoint is the device's address on the fabric ("host:port").
	Endpoint string
	// NumCQs is the number of completion queues (poller threads).
	NumCQs int
	// QPsPerPeer is the number of queue pairs created per connected peer.
	QPsPerPeer int
	// SendQueueDepth is the per-QP work queue capacity.
	SendQueueDepth int
	// MaxRegions bounds the number of registered memory regions, emulating
	// the hardware registration limit that motivates arena registration in
	// §3.4. Zero means 4096.
	MaxRegions int
}

func (c *Config) setDefaults() error {
	if c.Endpoint == "" {
		return fmt.Errorf("rdma: empty endpoint: %w", ErrBadConfig)
	}
	if c.NumCQs == 0 {
		c.NumCQs = 4
	}
	if c.QPsPerPeer == 0 {
		c.QPsPerPeer = 4
	}
	if c.SendQueueDepth == 0 {
		c.SendQueueDepth = 128
	}
	if c.MaxRegions == 0 {
		c.MaxRegions = 4096
	}
	if c.NumCQs < 0 || c.QPsPerPeer < 0 || c.SendQueueDepth < 0 || c.MaxRegions < 0 {
		return fmt.Errorf("rdma: negative config value: %w", ErrBadConfig)
	}
	return nil
}

// Device emulates one RDMA NIC attached to an endpoint on a fabric.
// It is the CreateRdmaDevice object of Table 1.
type Device struct {
	fabric   *Fabric
	endpoint string
	cfg      Config

	closed atomic.Bool

	mu      sync.Mutex
	regions map[uint32]*MemRegion
	peers   map[string]*peerConn
	nextCQ  int

	cqs []*completionQueue

	msgMu      sync.Mutex
	msgHandler func(from string, payload []byte)
	msgQueue   *guardedQueue[inboundMsg]
	rpc        rpcState

	qpWG     sync.WaitGroup // queue-pair goroutines
	pollerWG sync.WaitGroup // CQ pollers and the message dispatcher
}

// guardedQueue is a channel whose senders and closer are synchronized, so a
// shutdown never races with in-flight posts: post blocks holding a read
// lock, close takes the write lock after all posts drain into the buffer.
type guardedQueue[T any] struct {
	mu     sync.RWMutex
	closed bool
	ch     chan T
}

func newGuardedQueue[T any](depth int) *guardedQueue[T] {
	return &guardedQueue[T]{ch: make(chan T, depth)}
}

// post enqueues v, reporting false if the queue is closed.
func (q *guardedQueue[T]) post(v T) bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return false
	}
	q.ch <- v
	return true
}

// postAll enqueues every value under one lock acquisition — the doorbell
// batch. All-or-none with respect to shutdown: close takes the write lock,
// so either the whole batch lands in the buffer before the queue closes or
// none of it does.
func (q *guardedQueue[T]) postAll(vs []T) bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return false
	}
	for _, v := range vs {
		q.ch <- v
	}
	return true
}

func (q *guardedQueue[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
}

type inboundMsg struct {
	from    string
	payload []byte
}

type peerConn struct {
	qps []*queuePair
}

// CreateDevice creates and registers a device on the fabric
// (CreateRdmaDevice in Table 1).
func CreateDevice(f *Fabric, cfg Config) (*Device, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	d := &Device{
		fabric:   f,
		endpoint: cfg.Endpoint,
		cfg:      cfg,
		regions:  make(map[uint32]*MemRegion),
		peers:    make(map[string]*peerConn),
		msgQueue: newGuardedQueue[inboundMsg](256),
	}
	d.rpc.init()
	if err := f.register(d); err != nil {
		return nil, err
	}
	d.cqs = make([]*completionQueue, cfg.NumCQs)
	for i := range d.cqs {
		d.cqs[i] = newCompletionQueue(256)
		d.pollerWG.Add(1)
		go func(cq *completionQueue) {
			defer d.pollerWG.Done()
			cq.pollLoop()
		}(d.cqs[i])
	}
	d.pollerWG.Add(1)
	go func() {
		defer d.pollerWG.Done()
		d.dispatchMessages()
	}()
	return d, nil
}

// Endpoint returns the device's fabric address.
func (d *Device) Endpoint() string { return d.endpoint }

// Closed reports whether Close has begun. Failure detectors use it to tell a
// deliberately (or crash-) closed local device from a remote fault.
func (d *Device) Closed() bool { return d.closed.Load() }

// AllocateMemRegion registers a new RDMA-accessible memory region of the
// given size (rounded up to a multiple of 8 bytes so every tail flag word is
// aligned). It corresponds to RdmaDev::AllocateMemRegion in Table 1.
func (d *Device) AllocateMemRegion(size int) (*MemRegion, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rdma: region size %d: %w", size, ErrBadConfig)
	}
	if d.closed.Load() {
		return nil, ErrClosed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.regions) >= d.cfg.MaxRegions {
		return nil, fmt.Errorf("rdma: registration limit %d reached: %w", d.cfg.MaxRegions, ErrBadConfig)
	}
	rounded := (size + 7) / 8 * 8
	// Region ids come from a fabric-wide sequence, not a per-device counter:
	// a restarted endpoint must never mint ids that alias regions a dead
	// incarnation advertised, or a stale queued work request could land in
	// the new incarnation's memory instead of failing with ErrBounds.
	mr := &MemRegion{dev: d, id: d.fabric.nextRegionID(), data: newAlignedBytes(rounded)}
	d.regions[mr.id] = mr
	return mr, nil
}

// FreeMemRegion deregisters a region. Outstanding transfers targeting it
// fail with ErrBounds.
func (d *Device) FreeMemRegion(mr *MemRegion) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.regions, mr.id)
}

// RegionCount reports the number of registered regions (for tests asserting
// the arena design keeps registrations low).
func (d *Device) RegionCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.regions)
}

// PeerCount reports the number of peers with live QP groups.
func (d *Device) PeerCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.peers)
}

// QPCount reports the number of live queue pairs on this device (scale
// tests assert the mux keeps it at O(slots·lanes), not O(peers)).
func (d *Device) QPCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.peers) * d.cfg.QPsPerPeer
}

func (d *Device) lookupRegion(id uint32) (*MemRegion, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	mr, ok := d.regions[id]
	if !ok {
		return nil, fmt.Errorf("rdma: region %d not registered on %s: %w", id, d.endpoint, ErrBounds)
	}
	return mr, nil
}

// GetChannel returns a communication channel to the remote endpoint bound
// to the specified QP index (RdmaDev::GetChannel in Table 1). QPs for a
// peer are created lazily on first use and associated with the device's
// CQs in round-robin order (Figure 4). Multi-threaded callers spread load
// by using distinct qpIdx values.
func (d *Device) GetChannel(remote string, qpIdx int) (*Channel, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	if remote == d.endpoint {
		return nil, fmt.Errorf("rdma: channel to self %q: %w", remote, ErrBadConfig)
	}
	if qpIdx < 0 || qpIdx >= d.cfg.QPsPerPeer {
		return nil, fmt.Errorf("rdma: qp index %d outside [0,%d): %w", qpIdx, d.cfg.QPsPerPeer, ErrBadConfig)
	}
	d.mu.Lock()
	pc, ok := d.peers[remote]
	if !ok {
		pc = &peerConn{qps: make([]*queuePair, d.cfg.QPsPerPeer)}
		for i := range pc.qps {
			cq := d.cqs[d.nextCQ%len(d.cqs)]
			d.nextCQ++
			qp := newQueuePair(d, remote, cq, d.cfg.SendQueueDepth)
			pc.qps[i] = qp
			d.qpWG.Add(1)
			go func() {
				defer d.qpWG.Done()
				qp.run()
			}()
		}
		d.peers[remote] = pc
	}
	qp := pc.qps[qpIdx]
	d.mu.Unlock()
	return &Channel{dev: d, remote: remote, qp: qp}, nil
}

// ClosePeer tears down the local QPs connecting this device to one remote
// endpoint: queued and future work on them fails with ErrClosed, and a later
// GetChannel to the same endpoint builds fresh QPs. Recovery drivers call it
// on every survivor to sever the fabric paths to a crashed peer before its
// replacement re-registers under the same endpoint name, so no stale work
// request can reach the new incarnation.
func (d *Device) ClosePeer(remote string) {
	d.mu.Lock()
	pc, ok := d.peers[remote]
	if ok {
		delete(d.peers, remote)
	}
	d.mu.Unlock()
	if !ok {
		return
	}
	for _, qp := range pc.qps {
		qp.close()
	}
}

// SetMessageHandler installs the two-sided receive handler. Messages are
// delivered on the device's dispatcher goroutine in arrival order.
func (d *Device) SetMessageHandler(h func(from string, payload []byte)) {
	d.msgMu.Lock()
	d.msgHandler = h
	d.msgMu.Unlock()
}

func (d *Device) dispatchMessages() {
	for m := range d.msgQueue.ch {
		if len(m.payload) > 0 && m.payload[0] == rpcMagic {
			d.handleRPCMessage(m.from, m.payload)
			continue
		}
		d.msgMu.Lock()
		h := d.msgHandler
		d.msgMu.Unlock()
		if h != nil {
			h(m.from, m.payload)
		}
	}
}

// deliver enqueues an inbound two-sided message (called from the sender's
// QP goroutine; the copy into the queue models the receive-buffer copy of
// messaging verbs).
func (d *Device) deliver(from string, payload []byte) error {
	if d.closed.Load() {
		return ErrClosed
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	if !d.msgQueue.post(inboundMsg{from: from, payload: cp}) {
		return ErrClosed
	}
	return nil
}

// Close shuts the device down in dependency order: the endpoint leaves the
// fabric, QPs stop accepting work and drain, the message dispatcher stops,
// and finally the CQ pollers drain outstanding completions.
func (d *Device) Close() {
	if !d.closed.CompareAndSwap(false, true) {
		return
	}
	d.fabric.unregister(d.endpoint)
	d.mu.Lock()
	for _, pc := range d.peers {
		for _, qp := range pc.qps {
			qp.close()
		}
	}
	d.mu.Unlock()
	d.qpWG.Wait() // all completions posted to CQs by now
	d.msgQueue.close()
	for _, cq := range d.cqs {
		cq.close()
	}
	d.rpc.failAll(ErrClosed)
	d.pollerWG.Wait()
}

// completionQueue carries work completions to a dedicated poller goroutine,
// which invokes the user callbacks (the library's "thread pool with each
// thread polling a specific CQ").
type completionQueue struct {
	q *guardedQueue[completion]
}

type completion struct {
	cb  func(error)
	err error
}

func newCompletionQueue(depth int) *completionQueue {
	return &completionQueue{q: newGuardedQueue[completion](depth)}
}

func (cq *completionQueue) post(c completion) {
	if !cq.q.post(c) && c.cb != nil {
		// Shutdown raced with the final completions: still inform the
		// caller rather than dropping the callback.
		c.cb(ErrClosed)
	}
}

func (cq *completionQueue) pollLoop() {
	for c := range cq.q.ch {
		if c.cb != nil {
			c.cb(c.err)
		}
	}
}

func (cq *completionQueue) close() {
	cq.q.close()
}

// queuePair processes posted work requests in order, the way a reliable
// connected QP does.
type queuePair struct {
	dev  *Device
	peer string
	cq   *completionQueue
	wq   *guardedQueue[workRequest]
	down atomic.Bool // set by close: buffered work fails instead of executing
}

type wrKind uint8

const (
	wrTransfer wrKind = iota
	wrMessage
)

type workRequest struct {
	kind wrKind

	// one-sided transfer fields
	op        Op
	local     *MemRegion
	localOff  int
	remote    RemoteRegion
	remoteOff int
	size      int

	// two-sided message payload
	payload []byte

	// tag, when non-nil, marks this write as a lossy-protocol chunk (see
	// retransmit.go), silently droppable and landing via epoch-guarded
	// placement, or as a control word carrying its value inline (the lossy
	// protocol's headers and every reuse ack).
	tag *writeTag

	cb func(error)
}

// ChunkTag is the semantic header carried by every tagged chunk write:
// which tensor, which chunk of it, and which send epoch.
type ChunkTag struct {
	TensorID uint64
	Seq      uint32
	Epoch    uint64
}

type tagKind uint8

const (
	tagChunk tagKind = iota
	tagWord
)

// writeTag rides a workRequest into executeTagged: a chunk's header and its
// slot's guard/arrival offsets, or a control word's inline value.
type writeTag struct {
	kind       tagKind
	tag        ChunkTag
	guardOff   int // absolute offset of the slot's epoch guard word
	arrivalOff int // absolute offset of arrival[0]
	word       uint64
}

func newQueuePair(d *Device, peer string, cq *completionQueue, depth int) *queuePair {
	return &queuePair{dev: d, peer: peer, cq: cq, wq: newGuardedQueue[workRequest](depth)}
}

func (qp *queuePair) post(wr workRequest) error {
	if !qp.wq.post(wr) {
		return ErrClosed
	}
	return nil
}

// postBatch rings the doorbell once for a group of work requests: they enter
// the send queue contiguously under one lock acquisition, or — if the QP is
// already closed — none of them do.
func (qp *queuePair) postBatch(wrs []workRequest) error {
	if !qp.wq.postAll(wrs) {
		return ErrClosed
	}
	return nil
}

func (qp *queuePair) run() {
	for wr := range qp.wq.ch {
		if qp.down.Load() || qp.dev.closed.Load() {
			// Fail fast: work buffered before Close must not execute against
			// live peers afterwards — callers get ErrClosed, not a transfer
			// that silently lands while the device is tearing down.
			qp.cq.post(completion{cb: wr.cb, err: ErrClosed})
			continue
		}
		var err error
		switch wr.kind {
		case wrTransfer:
			err = qp.dev.executeTransfer(qp.peer, wr)
		case wrMessage:
			err = qp.dev.executeMessage(qp.peer, wr.payload)
		}
		if wr.kind == wrTransfer {
			hooks := qp.dev.fabric.hooksSnapshot()
			if hooks.CompletionFault != nil {
				cf := hooks.CompletionFault(wr.op, wr.size)
				if cf.Delay > 0 {
					// Completion moderation: later WRs on this QP stall too,
					// the way a backed-up CQ behaves.
					sleep(cf.Delay)
				}
				if cf.Duplicate {
					qp.cq.post(completion{cb: wr.cb, err: err})
				}
			}
		}
		qp.cq.post(completion{cb: wr.cb, err: err})
	}
}

func (qp *queuePair) close() {
	qp.down.Store(true)
	qp.wq.close()
}

// executeTransfer performs a one-sided read or write: it runs entirely on
// the requester's QP goroutine, touching the remote region's memory directly
// without involving any goroutine of the remote device.
func (d *Device) executeTransfer(peer string, wr workRequest) error {
	hooks := d.fabric.hooksSnapshot()
	if hooks.TransferDelay != nil {
		if delay := hooks.TransferDelay(wr.op, wr.size); delay > 0 {
			sleep(delay)
		}
	}
	if hooks.PathDelay != nil {
		if delay := hooks.PathDelay(wr.op, wr.size, d.endpoint, peer); delay > 0 {
			sleep(delay)
		}
	}
	if hooks.TransferFault != nil {
		if err := hooks.TransferFault(wr.op, wr.size); err != nil {
			return err
		}
	}
	remoteDev, err := d.fabric.lookup(d.endpoint, peer)
	if err != nil {
		return err
	}
	if wr.remote.Endpoint != peer {
		return fmt.Errorf("rdma: remote region on %s used over channel to %s: %w",
			wr.remote.Endpoint, peer, ErrBadConfig)
	}
	remoteMR, err := remoteDev.lookupRegion(wr.remote.RegionID)
	if err != nil {
		return err
	}
	if wr.tag != nil {
		return d.executeTagged(remoteMR, wr, hooks)
	}
	local, err := wr.local.Slice(wr.localOff, wr.size)
	if err != nil {
		return err
	}
	remote, err := remoteMR.Slice(wr.remoteOff, wr.size)
	if err != nil {
		return err
	}
	reorder := hooks.WriteReorder != nil && hooks.WriteReorder(wr.op, wr.size)
	switch wr.op {
	case OpWrite:
		if reorder {
			reorderedCopy(remote, wr.remoteOff, local, wr.localOff)
		} else {
			orderedCopy(remote, wr.remoteOff, local, wr.localOff)
		}
	case OpRead:
		orderedCopy(local, wr.localOff, remote, wr.remoteOff)
	}
	if hooks.OnTransfer != nil {
		hooks.OnTransfer(wr.op, wr.size)
	}
	return nil
}

// executeTagged performs a tagged write. A control word (a lossy-protocol
// header word, or any reuse ack) stores its inline value. A chunk of the
// lossy protocol may be silently dropped by the lossy hooks (the completion
// still succeeds — a packet lost on an unreliable fabric) and otherwise
// lands through the region's epoch-guarded placement, which discards stale
// chunks and stamps the arrival word the receiver scans. Every write that
// reached memory counts for OnTransfer; a dropped chunk does not.
func (d *Device) executeTagged(remoteMR *MemRegion, wr workRequest, hooks Hooks) error {
	t := wr.tag
	if t.kind == tagWord {
		if err := remoteMR.storeGuarded(wr.remoteOff, t.word); err != nil {
			return err
		}
	} else {
		if hooks.Lossy && hooks.ChunkDrop != nil && hooks.ChunkDrop(t.tag, wr.size) {
			return nil // lost on the wire: memory untouched, completion succeeds
		}
		local, err := wr.local.Slice(wr.localOff, wr.size)
		if err != nil {
			return err
		}
		placed, err := remoteMR.placeChunk(t, wr.remoteOff, local)
		if err != nil {
			return err
		}
		if !placed && hooks.OnChunkStale != nil {
			hooks.OnChunkStale(t.tag)
		}
	}
	if hooks.OnTransfer != nil {
		hooks.OnTransfer(wr.op, wr.size)
	}
	return nil
}

func (d *Device) executeMessage(peer string, payload []byte) error {
	if hooks := d.fabric.hooksSnapshot(); hooks.MessageFault != nil {
		if err := hooks.MessageFault(len(payload)); err != nil {
			return err
		}
	}
	remoteDev, err := d.fabric.lookup(d.endpoint, peer)
	if err != nil {
		return err
	}
	return remoteDev.deliver(d.endpoint, payload)
}

// orderedCopy copies src into dst (the slices start at absolute offsets
// dstOff/srcOff in their regions) in ascending address order. If the
// transfer ends on an 8-byte-aligned boundary at both ends and spans at
// least one word, the final word is moved with an atomic load/store pair so
// a tail flag (or version word) becomes visible only after the payload —
// the emulator's rendering of the NIC's in-order DMA guarantee the §3.2
// protocol depends on. Using an atomic load on the source side lets
// protocols update single-word sources (e.g. the serving plane's ack
// scratch word) with StoreWord without racing the in-flight transfer.
func orderedCopy(dst []byte, dstOff int, src []byte, srcOff int) {
	n := len(src)
	if n >= 8 && (dstOff+n)%8 == 0 && (srcOff+n)%8 == 0 {
		copy(dst[:n-8], src[:n-8])
		atomicStore64(dst, n-8, atomicLoad64(src, n-8))
		return
	}
	copy(dst, src)
}

// reorderedCopy is orderedCopy with the guarantee deliberately broken: the
// final word (where protocols keep their flag) is stored before the payload,
// with a scheduling point in between so a concurrent poller can observe the
// flag set while the payload is still stale. Only fault-injection hooks
// select this path. The payload body is moved word-by-word with atomic
// stores: the hazard being modelled is stale data visible after the flag,
// not a Go-level data race, and the word stores let chaos tests observe the
// stale window (via LoadWord) while staying clean under the race detector.
func reorderedCopy(dst []byte, dstOff int, src []byte, srcOff int) {
	n := len(src)
	if n < 8 || (dstOff+n)%8 != 0 || (srcOff+n)%8 != 0 {
		copy(dst, src)
		return
	}
	atomicStore64(dst, n-8, atomicLoad64(src, n-8))
	runtime.Gosched()
	// Both offsets share the same misalignment (their sum with n is a
	// multiple of 8), so one ragged head covers both sides.
	head := (8 - dstOff%8) % 8
	if head > n-8 {
		head = n - 8
	}
	copy(dst[:head], src[:head])
	for off := head; off+8 <= n-8; off += 8 {
		atomicStore64(dst, off, atomicLoad64(src, off))
	}
}

// Channel connects the local device to one remote endpoint over one QP
// (RdmaChannel in Table 1).
type Channel struct {
	dev    *Device
	remote string
	qp     *queuePair
}

// Remote returns the peer endpoint this channel targets.
func (c *Channel) Remote() string { return c.remote }

// Down reports whether the channel's QP has been closed (ClosePeer or
// device shutdown): posted work on a down channel fails with ErrClosed.
// Pool layers use it to detect a binding whose QPs died underneath it.
func (c *Channel) Down() bool { return c.qp.down.Load() }

// Memcpy asynchronously copies size bytes between the local region (at
// localOff) and the remote region (at remoteOff); dir selects RDMA write or
// read. The callback runs on a CQ poller goroutine when the transfer
// completes. Validation errors are returned synchronously.
func (c *Channel) Memcpy(localOff int, local *MemRegion, remoteOff int, remote RemoteRegion,
	size int, dir Op, cb func(error)) error {
	wr, err := transferWR(localOff, local, remoteOff, remote, size, dir, cb)
	if err != nil {
		return err
	}
	return c.qp.post(wr)
}

// transferWR validates one transfer's bounds and builds its work request.
func transferWR(localOff int, local *MemRegion, remoteOff int, remote RemoteRegion,
	size int, dir Op, cb func(error)) (workRequest, error) {
	if local == nil {
		return workRequest{}, fmt.Errorf("rdma: nil local region: %w", ErrBadConfig)
	}
	if size < 0 {
		return workRequest{}, fmt.Errorf("rdma: negative size %d: %w", size, ErrBadConfig)
	}
	if localOff < 0 || localOff+size > local.Size() {
		return workRequest{}, fmt.Errorf("rdma: local [%d,+%d) of %d: %w", localOff, size, local.Size(), ErrBounds)
	}
	if remoteOff < 0 || uint64(remoteOff)+uint64(size) > remote.Size {
		return workRequest{}, fmt.Errorf("rdma: remote [%d,+%d) of %d: %w", remoteOff, size, remote.Size, ErrBounds)
	}
	return workRequest{
		kind: wrTransfer, op: dir,
		local: local, localOff: localOff,
		remote: remote, remoteOff: remoteOff,
		size: size, cb: cb,
	}, nil
}

// MemcpyReq describes one transfer of a doorbell batch (see MemcpyBatch).
type MemcpyReq struct {
	LocalOff  int
	Local     *MemRegion
	RemoteOff int
	Remote    RemoteRegion
	Size      int
	Dir       Op
	CB        func(error)
	tag       *writeTag // lossy-protocol chunk or control word (retransmit.go)
}

// MemcpyBatch posts several transfers with one doorbell ring: every request
// is validated up front, then the whole group enters the QP's send queue
// under a single lock acquisition — the emulator's rendering of a verbs
// doorbell batch, where a linked list of work requests costs one MMIO write
// instead of one per WR. On a validation error nothing is posted and the
// error is returned synchronously; on a closed QP nothing is posted either
// (all-or-none). Completion callbacks fire individually per request, in
// queue order, exactly as with Memcpy.
func (c *Channel) MemcpyBatch(reqs []MemcpyReq) error {
	var buf [4]workRequest // small batches post without a heap slice
	wrs := buf[:0]
	if len(reqs) > len(buf) {
		wrs = make([]workRequest, 0, len(reqs))
	}
	for _, r := range reqs {
		wr, err := transferWR(r.LocalOff, r.Local, r.RemoteOff, r.Remote, r.Size, r.Dir, r.CB)
		if err != nil {
			return err
		}
		wr.tag = r.tag
		wrs = append(wrs, wr)
	}
	return c.qp.postBatch(wrs)
}

// MemcpySync is Memcpy that blocks until completion, for callers without an
// event loop (tests, examples, the address-distribution path). It tolerates
// duplicated completions: only the first is consumed, extras are dropped
// without blocking the CQ poller.
func (c *Channel) MemcpySync(localOff int, local *MemRegion, remoteOff int, remote RemoteRegion,
	size int, dir Op) error {
	return await(func(fin func(error)) {
		if err := c.Memcpy(localOff, local, remoteOff, remote, size, dir, firstOnly(func() {}, fin)); err != nil {
			fin(err)
		}
	})
}

// SendMsg posts a two-sided message to the peer (messaging verbs). The
// callback fires when the message has been accepted by the remote receive
// queue.
func (c *Channel) SendMsg(payload []byte, cb func(error)) error {
	return c.qp.post(workRequest{kind: wrMessage, payload: payload, cb: cb})
}
