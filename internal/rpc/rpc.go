// Package rpc is a compact gRPC-like remote procedure call library: unary
// calls multiplexed over one connection, a method registry on the server,
// and the structural costs of the RPC abstraction the paper argues against —
// every request and response is serialized into a fresh buffer, travels
// through the transport's in-library buffers, and is copied out on arrival.
// It runs over any transport.Network, which is how the gRPC.TCP and
// gRPC.RDMA baselines are formed.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/transport"
)

// Errors returned by the client and server.
var (
	ErrClosed   = errors.New("rpc: closed")
	ErrRemote   = errors.New("rpc: remote handler error")
	ErrNoMethod = errors.New("rpc: no such method")
	errBadFrame = errors.New("rpc: malformed frame")
)

const (
	kindRequest  byte = 1
	kindResponse byte = 2
)

// Handler serves one method. req is owned by the handler; the returned
// response is copied onto the wire.
type Handler func(req []byte) ([]byte, error)

// Server dispatches inbound calls to registered handlers.
type Server struct {
	listener transport.Listener

	mu       sync.Mutex
	handlers map[string]Handler
	conns    map[transport.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

// NewServer wraps a listener. Call Register then Start.
func NewServer(l transport.Listener) *Server {
	return &Server{
		listener: l,
		handlers: make(map[string]Handler),
		conns:    make(map[transport.Conn]struct{}),
	}
}

// Register installs a handler for method. Registration after Start is safe.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Start accepts connections on a background goroutine until Close.
func (s *Server) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := s.listener.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
}

func (s *Server) serveConn(conn transport.Conn) {
	defer conn.Close()
	var sendMu sync.Mutex
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		id, method, body, err := decodeRequest(frame)
		if err != nil {
			return // protocol violation: drop the connection
		}
		s.mu.Lock()
		h := s.handlers[method]
		s.mu.Unlock()
		// Serve concurrently: deep-learning workloads push many tensors in
		// flight on one channel.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			var resp []byte
			var herr error
			if h == nil {
				herr = fmt.Errorf("%w: %q", ErrNoMethod, method)
			} else {
				resp, herr = safeCall(h, body)
			}
			out := encodeResponse(id, resp, herr)
			sendMu.Lock()
			err := conn.Send(out)
			sendMu.Unlock()
			_ = err // peer gone: nothing to do
		}()
	}
}

// Addr returns the listener's dialable address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Close stops accepting, tears down live connections, and waits for
// handlers to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// Client is a multiplexing RPC client over one connection.
type Client struct {
	conn transport.Conn

	sendMu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]chan result
	nextID  uint64
	err     error

	wg sync.WaitGroup
}

type result struct {
	payload []byte
	err     error
}

// Dial connects to a server address on the given network.
func Dial(net transport.Network, addr string) (*Client, error) {
	conn, err := net.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, pending: make(map[uint64]chan result)}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.recvLoop()
	}()
	return c, nil
}

func (c *Client) recvLoop() {
	for {
		frame, err := c.conn.Recv()
		if err != nil {
			c.failAll(ErrClosed)
			return
		}
		id, body, rerr, err := decodeResponse(frame)
		if err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- result{payload: body, err: rerr}
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		ch <- result{err: err}
		delete(c.pending, id)
	}
}

// Call performs a unary RPC and blocks for the response.
func (c *Client) Call(method string, req []byte) ([]byte, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan result, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	frame := encodeRequest(id, method, req)
	c.sendMu.Lock()
	err := c.conn.Send(frame)
	c.sendMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		closed := c.err
		c.mu.Unlock()
		if closed != nil {
			// The send lost a race with Close (or a dead connection):
			// report the client's terminal error, not the conn's.
			return nil, fmt.Errorf("%w (send: %v)", closed, err)
		}
		return nil, err
	}
	res := <-ch
	return res.payload, res.err
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
// The client is marked closed before the conn goes away, so a Call whose
// send fails on the closing conn already sees ErrClosed.
func (c *Client) Close() {
	c.failAll(ErrClosed)
	c.conn.Close()
	c.wg.Wait()
}

// safeCall shields the server from a panicking handler: the panic becomes
// an error response instead of tearing the whole process down (a server
// must outlive one bad request).
func safeCall(h Handler, body []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("%w: handler panic: %v", ErrRemote, r)
		}
	}()
	return h(body)
}

func encodeRequest(id uint64, method string, body []byte) []byte {
	buf := make([]byte, 0, 1+8+2+len(method)+len(body))
	buf = append(buf, kindRequest)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(method)))
	buf = append(buf, method...)
	return append(buf, body...)
}

func decodeRequest(frame []byte) (id uint64, method string, body []byte, err error) {
	if len(frame) < 11 || frame[0] != kindRequest {
		return 0, "", nil, errBadFrame
	}
	id = binary.LittleEndian.Uint64(frame[1:])
	mlen := int(binary.LittleEndian.Uint16(frame[9:]))
	if len(frame) < 11+mlen {
		return 0, "", nil, errBadFrame
	}
	return id, string(frame[11 : 11+mlen]), frame[11+mlen:], nil
}

func encodeResponse(id uint64, body []byte, herr error) []byte {
	status := byte(0)
	if herr != nil {
		status = 1
		body = []byte(herr.Error())
	}
	buf := make([]byte, 0, 1+8+1+len(body))
	buf = append(buf, kindResponse)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = append(buf, status)
	return append(buf, body...)
}

func decodeResponse(frame []byte) (id uint64, body []byte, rerr error, err error) {
	if len(frame) < 10 || frame[0] != kindResponse {
		return 0, nil, nil, errBadFrame
	}
	id = binary.LittleEndian.Uint64(frame[1:])
	if frame[9] != 0 {
		return id, nil, fmt.Errorf("%w: %s", ErrRemote, string(frame[10:])), nil
	}
	body = frame[10:]
	if body == nil {
		body = []byte{}
	}
	return id, body, nil, nil
}
