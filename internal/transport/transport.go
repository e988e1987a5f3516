// Package transport provides the reliable, ordered message transports the
// RPC baseline runs over. Three are implemented:
//
//   - Pipe: an in-process transport used by tests and the in-process
//     cluster, with bounded queues and the same copy discipline as a socket.
//   - TCP: real loopback TCP with length-prefixed framing — the gRPC.TCP
//     baseline's wire.
//   - Ring: RDMA-backed streaming in the style TensorFlow r1.x wraps RDMA
//     under gRPC (§2.2, §5): a fixed ring buffer of receive slots per
//     direction, sender-side fragmentation of large messages, receiver-side
//     reassembly, and the mandatory copies in and out of the ring. This is
//     the gRPC.RDMA baseline's wire.
//
// All three present the same Conn interface so the RPC layer is oblivious
// to the substrate, mirroring how gRPC treats its channels.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/rdma"
)

// ErrClosed is returned by operations on closed connections or listeners.
var ErrClosed = errors.New("transport: closed")

// ErrTimeout is returned when a Send exhausts its deadline — either waiting
// for ring credit (peer stalled or partitioned) or retrying fragment writes.
// It always wraps the underlying cause where one exists.
var ErrTimeout = errors.New("transport: send deadline exceeded")

// Retryable classifies a transport error as transient (the fault may heal;
// the operation may be retried at the message level) versus fatal. Timeouts
// are fatal: a retry budget was already spent. ErrClosed is fatal.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, ErrTimeout) || errors.Is(err, ErrClosed) {
		return false
	}
	return rdma.Retryable(err)
}

// Conn is a reliable, ordered, message-oriented duplex connection. Send
// blocks until the message is accepted by the transport; Recv blocks until
// a message arrives. Message boundaries are preserved.
type Conn interface {
	// Send transmits one message. The transport copies msg before Send
	// returns; the caller may reuse the buffer.
	Send(msg []byte) error
	// Recv returns the next message. The returned buffer is owned by the
	// caller.
	Recv() ([]byte, error)
	// Close tears the connection down; pending and future Recv calls fail
	// with ErrClosed.
	Close() error
}

// Listener accepts inbound connections on an address.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Addr returns the listener's dialable address.
	Addr() string
	// Close stops accepting; blocked Accept calls fail with ErrClosed.
	Close() error
}

// Dialer opens a connection to a listener address.
type Dialer func(addr string) (Conn, error)

// Network bundles a Dialer with a Listen function, so higher layers can be
// parameterized by substrate.
type Network struct {
	// Name identifies the substrate ("pipe", "tcp", "rdma-ring").
	Name string
	// Listen opens a listener. For TCP, addr may be "127.0.0.1:0".
	Listen func(addr string) (Listener, error)
	// Dial connects to a listener's Addr.
	Dial Dialer
}

// chanConn is the bounded-queue duplex connection of the pipe transport.
type chanConn struct {
	sendQ *msgQueue
	recvQ *msgQueue
}

func (c *chanConn) Send(msg []byte) error {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	if !c.sendQ.put(cp) {
		return ErrClosed
	}
	return nil
}

func (c *chanConn) Recv() ([]byte, error) {
	msg, ok := c.recvQ.take()
	if !ok {
		return nil, ErrClosed
	}
	return msg, nil
}

func (c *chanConn) Close() error {
	c.sendQ.close()
	c.recvQ.close()
	return nil
}

// msgQueue is a closable bounded queue of messages.
type msgQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    [][]byte
	max    int
	closed bool
}

func newMsgQueue(max int) *msgQueue {
	q := &msgQueue{max: max}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *msgQueue) put(msg []byte) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) >= q.max && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return false
	}
	q.buf = append(q.buf, msg)
	q.cond.Broadcast()
	return true
}

func (q *msgQueue) take() ([]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == 0 {
		return nil, false
	}
	msg := q.buf[0]
	q.buf = q.buf[1:]
	q.cond.Broadcast()
	return msg, true
}

func (q *msgQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// PipeNetwork is an in-process network of named listeners.
type PipeNetwork struct {
	mu        sync.Mutex
	listeners map[string]*chanListener
	next      int
}

// NewPipeNetwork creates an empty in-process network.
func NewPipeNetwork() *PipeNetwork {
	return &PipeNetwork{listeners: make(map[string]*chanListener)}
}

// Network returns the substrate descriptor for this pipe network.
func (n *PipeNetwork) Network() Network {
	return Network{Name: "pipe", Listen: n.Listen, Dial: n.Dial}
}

// Listen registers a listener; addr "" picks a fresh address.
func (n *PipeNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" {
		n.next++
		addr = fmt.Sprintf("pipe-%d", n.next)
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %q in use", addr)
	}
	l := newChanListener(addr, func() {
		n.mu.Lock()
		delete(n.listeners, addr)
		n.mu.Unlock()
	})
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a listener registered with Listen.
func (n *PipeNetwork) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: dial %q: no listener", addr)
	}
	const depth = 64
	aToB, bToA := newMsgQueue(depth), newMsgQueue(depth)
	client := &chanConn{sendQ: aToB, recvQ: bToA}
	if !l.offer(&chanConn{sendQ: bToA, recvQ: aToB}) {
		return nil, ErrClosed
	}
	return client, nil
}

// chanListener is the accept queue of the pipe and ring listeners: the
// transport offers each inbound connection, Accept takes it.
type chanListener struct {
	addr    string
	accept  chan Conn
	once    sync.Once
	done    chan struct{}
	onClose func() // if non-nil, runs once on Close
}

// newChanListener queues up to 16 offered connections, so a dial completes
// before its listener's owner gets round to Accept.
func newChanListener(addr string, onClose func()) *chanListener {
	return &chanListener{addr: addr, accept: make(chan Conn, 16), done: make(chan struct{}), onClose: onClose}
}

// offer queues c for Accept; it reports false once the listener closed.
func (l *chanListener) offer(c Conn) bool {
	select {
	case l.accept <- c:
		return true
	case <-l.done:
		return false
	}
}

func (l *chanListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *chanListener) Addr() string { return l.addr }

func (l *chanListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		if l.onClose != nil {
			l.onClose()
		}
	})
	return nil
}
