package transport

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdma"
)

// Ring transport: RDMA streaming through a fixed ring of receive slots, the
// way TensorFlow r1.x wraps RDMA under gRPC, with the costs §2.2 lists: a
// fixed in-library ring (messages are fragmented and reassembled), a copy
// of every fragment out of the ring, and credit writes back to the sender.
// The slot mechanics are rdma's static-slot engine. A ring slot is a
// StaticReceiver whose payload ends in [fragment | fragLen u32 | more u32]
// before the flag, so a fragment is one ascending write of just those
// bytes from the sender's one staging slot. The credit is the slot's reuse
// ack: Recv posts it once it copied the fragment out, and the slot's
// AckedSender waits for it. One QP carries a connection's fragments in
// slot order; no goroutine runs per connection.

const (
	ringSlotHeader = 8
	// DefaultRingSlots and DefaultRingSlotSize match the 4 MB total ring
	// TensorFlow's RDMA channel defaults to.
	DefaultRingSlots    = 64
	DefaultRingSlotSize = 64 << 10
)

// DefaultSendTimeout bounds how long a fragment waits for ring credit and
// how long its write may retry transient fabric faults.
const DefaultSendTimeout = 10 * time.Second

// RingConfig parameterizes a ring connection's two directions.
type RingConfig struct {
	Slots    int // slots per direction
	SlotSize int // bytes per slot, a multiple of 8, including header and flag word
	// SendTimeout bounds each fragment's credit wait and, again, its write
	// retries. Zero selects DefaultSendTimeout.
	SendTimeout time.Duration
	// OnSend, if non-nil, observes each completed Send's bytes and wall time
	// (fragmentation, credit waits, retries): the RPC latency histogram hook.
	OnSend func(bytes int, d time.Duration)
}

// normalize fills in defaults and rejects unaligned or payload-less slots.
func (c *RingConfig) normalize() error {
	c.Slots, c.SlotSize = cmp.Or(c.Slots, DefaultRingSlots), cmp.Or(c.SlotSize, DefaultRingSlotSize)
	c.SendTimeout = cmp.Or(max(c.SendTimeout, 0), DefaultSendTimeout)
	if c.Slots < 1 || c.SlotSize%8 != 0 || c.slotCap() < 1 {
		return fmt.Errorf("transport: ring of %d slots x %d bytes (want >= 1 slot of an 8-aligned size above %d): %w",
			c.Slots, c.SlotSize, ringSlotHeader+rdma.FlagWordSize, rdma.ErrBadConfig)
	}
	return nil
}

// slotCap is the fragment capacity of one slot.
func (c RingConfig) slotCap() int { return c.SlotSize - ringSlotHeader - rdma.FlagWordSize }

// ringHello is the handshake payload: the geometry, the ring the peer
// writes into, and the block of ack words (one per peer slot) it acks into.
type ringHello struct {
	Slots    uint32
	SlotSize uint32
	Ring     rdma.RemoteRegion
	Ack      rdma.RemoteRegion
}

func (h ringHello) marshal() []byte {
	buf := binary.LittleEndian.AppendUint32(nil, h.Slots)
	buf = binary.LittleEndian.AppendUint32(buf, h.SlotSize)
	return append(append(buf, h.Ring.Marshal()...), h.Ack.Marshal()...)
}

func unmarshalRingHello(buf []byte) (h ringHello, err error) {
	if len(buf) < 8 {
		return h, fmt.Errorf("transport: short ring hello (%d bytes)", len(buf))
	}
	h.Slots, h.SlotSize = binary.LittleEndian.Uint32(buf), binary.LittleEndian.Uint32(buf[4:])
	if h.Ring, err = rdma.UnmarshalRemoteRegion(buf[8:]); err == nil {
		h.Ack, err = rdma.UnmarshalRemoteRegion(buf[8+len(h.Ring.Marshal()):])
	}
	return h, err
}

// RingListenerService is the connect RPC the ring transport registers.
const RingListenerService = "transport.ring.connect"

// RingNetwork returns the substrate for ring connections from dev, addressed
// by fabric endpoint; a bad geometry fails Listen and Dial with ErrBadConfig.
func RingNetwork(dev *rdma.Device, cfg RingConfig) Network {
	if err := cfg.normalize(); err != nil {
		return Network{Name: "rdma-ring", Listen: func(string) (Listener, error) { return nil, err },
			Dial: func(string) (Conn, error) { return nil, err }}
	}
	return Network{
		Name:   "rdma-ring",
		Listen: func(string) (Listener, error) { return listenRing(dev, cfg), nil },
		Dial: func(addr string) (Conn, error) {
			ch, err := dev.GetChannel(addr, 0)
			if err != nil {
				return nil, err
			}
			// Retried so setup survives a lossy fabric; a lost reply leaves a conn to accept.
			return openRing(dev, ch, cfg, func(h ringHello) (ringHello, error) {
				resp, err := ch.CallRetry(RingListenerService, h.marshal(), rdma.TransferOpts{Deadline: cfg.SendTimeout})
				if err != nil {
					return h, fmt.Errorf("transport: ring connect to %s: %w", addr, err)
				}
				return unmarshalRingHello(resp)
			})
		},
	}
}

func listenRing(dev *rdma.Device, cfg RingConfig) Listener {
	l := newChanListener(dev.Endpoint(), nil)
	dev.RegisterRPC(RingListenerService, func(from string, req []byte) ([]byte, error) {
		ch, err := dev.GetChannel(from, 0)
		if err != nil {
			return nil, err
		}
		var reply []byte
		c, err := openRing(dev, ch, cfg, func(h ringHello) (ringHello, error) {
			reply = h.marshal()
			return unmarshalRingHello(req)
		})
		if err != nil {
			return nil, err
		}
		if !l.offer(c) {
			c.Close()
			return nil, ErrClosed
		}
		return reply, nil
	})
	return l
}

// ringConn is a duplex Conn: Recv drains our ring, Send fills the peer's.
type ringConn struct {
	dev     *rdma.Device
	ch      *rdma.Channel
	cfg     RingConfig
	ring    *rdma.MemRegion // the slots the peer writes into
	send    *rdma.MemRegion // one ack word per peer ring slot, then the staging slot
	peerAck rdma.RemoteRegion

	recvMu sync.Mutex
	slots  []*rdma.StaticReceiver
	next   int            // the slot Recv polls next
	acks   sync.WaitGroup // reuse acks in flight

	sendMu  sync.Mutex
	senders []*rdma.AckedSender // one per peer ring slot, all staging in one slot
	sent    int                 // the peer slot Send writes next

	closed    atomic.Bool
	closeOnce sync.Once
}

// openRing registers a connection's two regions, trades hellos through
// exchange and claims its slots; on failure nothing stays registered.
func openRing(dev *rdma.Device, ch *rdma.Channel, cfg RingConfig,
	exchange func(ringHello) (ringHello, error)) (*ringConn, error) {
	ring, err := dev.AllocateMemRegion(cfg.Slots * cfg.SlotSize)
	if err != nil {
		return nil, err
	}
	send, err := dev.AllocateMemRegion(cfg.Slots*rdma.FlagWordSize + cfg.SlotSize)
	if err != nil {
		dev.FreeMemRegion(ring)
		return nil, err
	}
	c := &ringConn{dev: dev, ch: ch, cfg: cfg, ring: ring, send: send}
	peer, err := exchange(ringHello{Slots: uint32(cfg.Slots), SlotSize: uint32(cfg.SlotSize),
		Ring: ring.Descriptor(), Ack: send.Descriptor()})
	if err == nil && (int(peer.Slots) != cfg.Slots || int(peer.SlotSize) != cfg.SlotSize) {
		err = fmt.Errorf("transport: ring config mismatch: local %d×%d, peer %d×%d",
			cfg.Slots, cfg.SlotSize, peer.Slots, peer.SlotSize)
	}
	c.peerAck = peer.Ack
	payload, stage := cfg.SlotSize-rdma.FlagWordSize, cfg.Slots*rdma.FlagWordSize
	for i := 0; err == nil && i < cfg.Slots; i++ {
		var r *rdma.StaticReceiver
		var s *rdma.AckedSender
		if r, err = rdma.NewStaticReceiver(ring, i*cfg.SlotSize, payload); err == nil {
			s, err = rdma.NewAckedSender(ch, send, stage, i*rdma.FlagWordSize,
				rdma.StaticSlotDesc{Region: peer.Ring, Off: i * cfg.SlotSize, PayloadSize: payload})
		}
		c.slots, c.senders = append(c.slots, r), append(c.senders, s)
	}
	if err != nil {
		c.free()
		return nil, err
	}
	return c, nil
}

func (c *ringConn) free() {
	c.dev.FreeMemRegion(c.ring)
	c.dev.FreeMemRegion(c.send)
}

// Send fragments msg into the peer's ring slots through the registered
// staging slot (the sender-side copy zero-copy RDMA eliminates). SendTimeout
// bounds each credit wait and each write: a stalled peer fails it typed.
func (c *ringConn) Send(msg []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	start := time.Now()
	for rem, first := msg, true; first || len(rem) > 0; first = false {
		if c.closed.Load() {
			return ErrClosed
		}
		opts := rdma.TransferOpts{Deadline: c.cfg.SendTimeout, Canceled: c.closed.Load}
		s := c.senders[c.sent]
		if err := s.WaitReusable(opts); err != nil {
			return sendErr("credit wait", err)
		}
		n := min(len(rem), c.cfg.slotCap())
		buf := s.Buffer()
		hdr := len(buf) - ringSlotHeader
		copy(buf[hdr-n:], rem[:n])
		rem = rem[n:]
		binary.LittleEndian.PutUint32(buf[hdr:], uint32(n))
		binary.LittleEndian.PutUint32(buf[hdr+4:], uint32(min(len(rem), 1))) // more fragments follow
		if err := s.SendTailRetry(hdr-n, opts); err != nil {
			return sendErr("fragment write", err)
		}
		c.sent = (c.sent + 1) % len(c.senders)
	}
	if hook := c.cfg.OnSend; hook != nil {
		hook(len(msg), time.Since(start))
	}
	return nil
}

// sendErr maps rdma's ErrCanceled to ErrClosed and wraps ErrTimeout in ours.
func sendErr(what string, err error) error {
	if errors.Is(err, rdma.ErrCanceled) {
		return ErrClosed
	}
	if errors.Is(err, rdma.ErrTimeout) {
		err = fmt.Errorf("%w (%w)", ErrTimeout, err)
	}
	return fmt.Errorf("transport: ring %s: %w", what, err)
}

// Recv polls the ring slot by slot, copying each fragment out and handing
// the slot back to the sender, until a message's last fragment arrived.
func (c *ringConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	var msg []byte
	for {
		r := c.slots[c.next]
		// An idle connection never times out; Close cancels the wait.
		err := r.Wait(rdma.TransferOpts{Deadline: math.MaxInt64, Canceled: c.closed.Load})
		if err != nil || c.closed.Load() {
			return nil, ErrClosed
		}
		p := r.Payload()
		hdr := len(p) - ringSlotHeader
		n := min(int(binary.LittleEndian.Uint32(p[hdr:])), hdr) // clamp a corrupt length
		more := binary.LittleEndian.Uint32(p[hdr+4:]) != 0
		msg = append(msg, p[hdr-n:hdr]...) // the in-library copy out of the ring
		r.Consume()
		c.acks.Add(1)
		r.AckRetryAsync(nil, c.ch, rdma.DynSlotDesc{Region: c.peerAck, Off: c.next * rdma.FlagWordSize},
			rdma.TransferOpts{Deadline: c.cfg.SendTimeout, Canceled: c.closed.Load},
			func(error) { c.acks.Done() })
		c.next = (c.next + 1) % len(c.slots)
		if !more {
			return msg, nil
		}
	}
}

// Close cancels a blocked Send or Recv, waits for them and the acks in
// flight, and frees the connection's regions.
func (c *ringConn) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		c.sendMu.Lock()
		c.recvMu.Lock()
		c.acks.Wait()
		c.free()
		c.recvMu.Unlock()
		c.sendMu.Unlock()
	})
	return nil
}
