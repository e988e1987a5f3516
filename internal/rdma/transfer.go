package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// This file implements the paper's two tensor-transfer protocols on top of
// the device's Memcpy interface.
//
// Static placement (§3.2, Figure 5): the receiver preallocates the
// destination tensor in registered memory with a flag word at its tail and
// distributes the slot's address; the sender one-sided-writes payload+flag
// in one ascending-order transfer; the receiver polls the flag, consumes the
// tensor, and clears the flag for the next iteration.
//
// Dynamic allocation (§3.3, Figure 6): shapes change across mini-batches but
// rank does not, so the receiver preallocates only a fixed-size metadata
// slot. The sender writes (dims, dtype, source address) plus flag; the
// receiver polls, allocates the tensor, and pulls the payload with a
// one-sided RDMA read, then posts an inline ack word back into the sender's
// scratch block so the sender knows the source buffer may be reused (in the
// paper this reuse gating comes from the data-flow graph's loop control
// dependency; the explicit ack makes the protocol self-contained). The
// metadata slot is an ack-gated static slot (ackSlot).

// ErrBusy is returned when a sender is asked to transmit before the
// previous transfer on the edge has been consumed.
var ErrBusy = errors.New("rdma: previous transfer not yet consumed")

// StaticSlotSize returns the region bytes needed for a static slot holding
// payloadSize payload bytes (payload + tail flag, rounded to alignment).
func StaticSlotSize(payloadSize int) int {
	return alignUp(payloadSize) + FlagWordSize
}

func alignUp(n int) int { return (n + 7) / 8 * 8 }

// StaticSlotDesc addresses a receiver-side static slot from the sender.
type StaticSlotDesc struct {
	Region      RemoteRegion
	Off         int
	PayloadSize int
}

// Marshal encodes the descriptor for address distribution.
func (d StaticSlotDesc) Marshal() []byte {
	region := d.Region.Marshal()
	buf := make([]byte, 0, len(region)+16)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Off))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.PayloadSize))
	return append(buf, region...)
}

// UnmarshalStaticSlotDesc decodes a descriptor produced by Marshal.
func UnmarshalStaticSlotDesc(buf []byte) (StaticSlotDesc, error) {
	var d StaticSlotDesc
	if len(buf) < 16 {
		return d, fmt.Errorf("rdma: short static slot descriptor (%d bytes)", len(buf))
	}
	d.Off = int(binary.LittleEndian.Uint64(buf))
	d.PayloadSize = int(binary.LittleEndian.Uint64(buf[8:]))
	region, err := UnmarshalRemoteRegion(buf[16:])
	if err != nil {
		return d, err
	}
	d.Region = region
	return d, nil
}

// StaticReceiver is the receiving end of a statically placed tensor slot.
// The payload bytes live at [off, off+payloadSize) of the region; the flag
// word sits at the aligned tail. The slot is never freed during the
// computation, so its address never changes (§4).
type StaticReceiver struct {
	mr          *MemRegion
	off         int
	payloadSize int
}

// NewStaticReceiver claims [off, off+StaticSlotSize(payloadSize)) of mr as a
// static receive slot and clears its flag.
func NewStaticReceiver(mr *MemRegion, off, payloadSize int) (*StaticReceiver, error) {
	if off%8 != 0 {
		return nil, fmt.Errorf("rdma: static slot offset %d not 8-aligned: %w", off, ErrBadConfig)
	}
	if _, err := mr.Slice(off, StaticSlotSize(payloadSize)); err != nil {
		return nil, err
	}
	r := &StaticReceiver{mr: mr, off: off, payloadSize: payloadSize}
	mr.ClearFlag(r.flagOff())
	return r, nil
}

func (r *StaticReceiver) flagOff() int { return r.off + alignUp(r.payloadSize) }

// Desc returns the remotely shareable slot address.
func (r *StaticReceiver) Desc() StaticSlotDesc {
	return StaticSlotDesc{Region: r.mr.Descriptor(), Off: r.off, PayloadSize: r.payloadSize}
}

// Poll reports whether a complete tensor has arrived (acquire semantics).
func (r *StaticReceiver) Poll() bool { return r.mr.PollFlag(r.flagOff()) }

// Payload returns the slot's payload bytes. Valid to read only after Poll
// has returned true (or before any sender knows the address).
func (r *StaticReceiver) Payload() []byte {
	return r.mr.Bytes()[r.off : r.off+r.payloadSize]
}

// Consume clears the flag for the next iteration. The paper's receiver
// "clears the flag for future use and then activates the graph nodes that
// depend on this transferred tensor".
func (r *StaticReceiver) Consume() { r.mr.ClearFlag(r.flagOff()) }

// StaticSender is the sending end of a statically placed tensor edge. Its
// staging buffer lives in registered memory so the graph analyzer can place
// the source tensor there directly (zero-copy); the flag word rides at the
// staging buffer's tail and is transferred together with the payload in one
// ascending-order write.
type StaticSender struct {
	ch    *Channel
	mr    *MemRegion
	off   int
	desc  StaticSlotDesc
	lanes []*Channel // channels for striped sends; lanes[0] == ch
	// source, when set, supplies lanes per attempt instead of the cached
	// ones (QP multiplexing: the edge pins a slot only while sending).
	source LaneSource
}

// SetLaneSource routes this sender's blocking sends through a per-attempt
// lane source (see LaneSource). Cached lanes remain the fallback for the
// non-blocking Send/SendStriped paths.
func (s *StaticSender) SetLaneSource(src LaneSource) { s.source = src }

// acquireLanes resolves the lanes for one attempt.
func (s *StaticSender) acquireLanes() ([]*Channel, func(), error) {
	if s.source == nil {
		return s.lanes, func() {}, nil
	}
	return s.source.AcquireLanes(s.ch.Remote())
}

// NewStaticSender claims [off, off+StaticSlotSize(desc.PayloadSize)) of the
// local region as staging for sends to the given remote slot.
func NewStaticSender(ch *Channel, mr *MemRegion, off int, desc StaticSlotDesc) (*StaticSender, error) {
	if off%8 != 0 {
		return nil, fmt.Errorf("rdma: static send offset %d not 8-aligned: %w", off, ErrBadConfig)
	}
	if _, err := mr.Slice(off, StaticSlotSize(desc.PayloadSize)); err != nil {
		return nil, err
	}
	if desc.Region.Endpoint != ch.Remote() {
		return nil, fmt.Errorf("rdma: slot on %s but channel to %s: %w",
			desc.Region.Endpoint, ch.Remote(), ErrBadConfig)
	}
	return &StaticSender{ch: ch, mr: mr, off: off, desc: desc, lanes: []*Channel{ch}}, nil
}

// Buffer returns the sender-side staging payload bytes. When graph analysis
// succeeds, the source tensor is allocated directly here and Send performs
// no copy at all.
func (s *StaticSender) Buffer() []byte {
	return s.mr.Bytes()[s.off : s.off+s.desc.PayloadSize]
}

// Send transfers the staging buffer (payload + set flag) to the remote slot
// with a single one-sided write. cb fires on a CQ poller when the write
// completes locally.
func (s *StaticSender) Send(cb func(error)) error { return s.sendOn(s.ch, 0, cb) }

// sendOn is Send over an explicit channel (per-attempt lane acquisition)
// from payload byte from on: from > 0 skips a head the receiver ignores.
func (s *StaticSender) sendOn(ch *Channel, from int, cb func(error)) error {
	flagOff := s.off + alignUp(s.desc.PayloadSize)
	s.mr.SetFlagLocal(flagOff)
	size := StaticSlotSize(s.desc.PayloadSize) - from
	return ch.Memcpy(s.off+from, s.mr, s.desc.Off+from, s.desc.Region, size, OpWrite, cb)
}

// SendFrom copies payload into the staging buffer first and then performs
// Send: the RDMA.cp path of §5.1, used when graph analysis is disabled and
// the source tensor is not RDMA-accessible.
func (s *StaticSender) SendFrom(payload []byte, cb func(error)) error {
	if len(payload) != s.desc.PayloadSize {
		return fmt.Errorf("rdma: payload %d bytes, slot holds %d: %w",
			len(payload), s.desc.PayloadSize, ErrBounds)
	}
	copy(s.Buffer(), payload)
	return s.Send(cb)
}

// --- Ack-gated slot ---

// ackSlot is a static slot whose reuse its receiver gates: a StaticSender
// plus a reuse-ack word in the same region. A send clears the ack and
// writes payload+flag in one ascending single-lane write; the receiver,
// once it consumed the slot, hands it back with postAck. The dynamic
// protocol's metadata slot, the coalesced batch slot (both with the ack
// word right after the staged tail flag) and every slot of the gRPC.RDMA
// ring (AckedSender) are ack-gated slots.
type ackSlot struct {
	s   *StaticSender
	ack int // offset of the reuse-ack word in s.mr
	// started is atomic: the scheduler polls PollReusable from its worker
	// goroutine while a retried send re-arms the slot from a timer.
	started atomic.Bool
}

// newAckSlot claims [off, off+StaticSlotSize(desc.PayloadSize)) of mr as
// staging and staged tail flag, and the aligned word at ack as the ack word.
func newAckSlot(ch *Channel, mr *MemRegion, off, ack int, desc StaticSlotDesc) (*ackSlot, error) {
	s, err := NewStaticSender(ch, mr, off, desc)
	if err != nil {
		return nil, err
	}
	if !mr.wordOK(ack) {
		return nil, fmt.Errorf("rdma: ack word at %d of %d-byte region: %w", ack, mr.Size(), ErrBounds)
	}
	mr.ClearFlag(ack)
	return &ackSlot{s: s, ack: ack}, nil
}

// SetLaneSource routes the slot's blocking sends through a per-attempt lane
// source.
func (a *ackSlot) SetLaneSource(src LaneSource) { a.s.SetLaneSource(src) }

// PollReusable reports whether the previous send has been acked (or none
// happened yet), i.e. whether the slot may be written again.
func (a *ackSlot) PollReusable() bool {
	return !a.started.Load() || a.s.mr.PollFlag(a.ack)
}

// send is the gate: ErrBusy while the previous send is unacked; otherwise
// it clears the ack, copies stage (if any) into the staging buffer — only
// now, since the previous write may read the buffer until the ack — and
// writes payload bytes [from, PayloadSize) and the flag on ch. cb fires
// when the write completes locally.
func (a *ackSlot) send(ch *Channel, stage []byte, from int, cb func(error)) error {
	if !a.PollReusable() {
		return ErrBusy
	}
	a.started.Store(true)
	a.s.mr.ClearFlag(a.ack)
	copy(a.s.Buffer(), stage)
	if err := a.s.sendOn(ch, from, cb); err != nil {
		a.s.mr.SetFlagLocal(a.ack) // nothing posted, so no ack will come
		return err
	}
	return nil
}

// postAck hands a consumed ack-gated slot back to its sender: FlagSet lands
// in the sender's ack word as one inline control word, so the receiver
// needs no source region of its own. cb fires once the word landed.
func (r *StaticReceiver) postAck(ch *Channel, ack DynSlotDesc, cb func(error)) {
	postControl(ch, r.mr, r.off, ack.Region, []ctlWord{{ack.Off, FlagSet}}, cb)
}

// AckedSender is an ack-gated slot whose ack word the caller places: each
// gRPC.RDMA ring slot has its ack word in one block, and a connection's
// slots share one staging range (their sends never overlap).
type AckedSender struct{ *ackSlot }

// NewAckedSender claims [off, off+StaticSlotSize(desc.PayloadSize)) of mr as
// staging and the word at ack as the reuse ack (see AckRetryAsync).
func NewAckedSender(ch *Channel, mr *MemRegion, off, ack int, desc StaticSlotDesc) (*AckedSender, error) {
	a, err := newAckSlot(ch, mr, off, ack, desc)
	if err != nil {
		return nil, err
	}
	return &AckedSender{a}, nil
}

// Buffer returns the staging payload bytes.
func (s *AckedSender) Buffer() []byte { return s.s.Buffer() }

// WaitReusable blocks until the previous send was acked (PollReusable), or
// fails at the opts deadline or cancel.
func (s *AckedSender) WaitReusable(opts TransferOpts) error {
	return waitCond(opts, func() string { return "reuse ack" }, s.PollReusable)
}

// SendTailRetry writes staging payload bytes [from, PayloadSize) and the
// tail flag in one ascending write through the gate, blocking until it
// completed; ErrBusy and transient faults are retried within opts.
func (s *AckedSender) SendTailRetry(from int, opts TransferOpts) error {
	n := s.s.desc.PayloadSize - from
	if from < 0 || n < 0 {
		return fmt.Errorf("rdma: tail send from %d of %d: %w", from, s.s.desc.PayloadSize, ErrBounds)
	}
	label := func() string { return fmt.Sprintf("acked send %dB to %s", n, s.s.ch.Remote()) }
	return await(func(fin func(error)) { s.sendRetry(label, n, nil, from, opts, fin) })
}

// --- Dynamic allocation protocol ---

// MaxDims is the maximum tensor rank the fixed-size metadata block can
// describe. The paper relies on the rank being invariant across iterations.
const MaxDims = 8

// Metadata block layout (all little-endian, fixed 120 bytes):
//
//	0   dtype     uint32
//	4   rank      uint32
//	8   dims      [MaxDims]uint64
//	72  srcRegion uint32   (sender payload region id)
//	76  _pad      uint32
//	80  srcSize   uint64   (sender payload region size)
//	88  srcOff    uint64   (payload offset within region)
//	96  payload   uint64   (payload byte count)
//	104 flag      uint64   (written last, ascending order)
//	112 ack       uint64   (receiver writes 1 here after its read completes)
const (
	dynMetaFlagOff = 104
	dynMetaAckOff  = 112
	// DynMetaSize is the full metadata block size including flag and ack.
	DynMetaSize = 120
)

// DynMeta is the decoded metadata describing one dynamic transfer.
type DynMeta struct {
	DType       uint32
	Dims        []uint64
	Src         RemoteRegion // reconstructed with the edge's sender endpoint
	SrcOff      uint64
	PayloadSize uint64
}

// DynSlotDesc addresses a receiver-side metadata slot (for the sender) or a
// sender-side scratch block (for the receiver's ack), symmetric on purpose.
type DynSlotDesc struct {
	Region RemoteRegion
	Off    int
}

// Marshal encodes the descriptor.
func (d DynSlotDesc) Marshal() []byte {
	buf := make([]byte, 0, 8+d.Region.wireSize())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Off))
	return append(buf, d.Region.Marshal()...)
}

// UnmarshalDynSlotDesc decodes a descriptor produced by Marshal.
func UnmarshalDynSlotDesc(buf []byte) (DynSlotDesc, error) {
	var d DynSlotDesc
	if len(buf) < 8 {
		return d, fmt.Errorf("rdma: short dyn slot descriptor (%d bytes)", len(buf))
	}
	d.Off = int(binary.LittleEndian.Uint64(buf))
	region, err := UnmarshalRemoteRegion(buf[8:])
	if err != nil {
		return d, err
	}
	d.Region = region
	return d, nil
}

// DynReceiver owns a preallocated metadata slot for one dynamic edge: a
// static slot whose payload is the metadata image (dynMetaFlagOff bytes).
type DynReceiver struct {
	slot   *StaticReceiver
	sender string     // the edge's fixed sender endpoint
	lanes  []*Channel // channels to the sender; more than one stripes fetches
	// source, when set, supplies FetchRetry's lanes per call (QP mux mode).
	source LaneSource
}

// SetLaneSource routes FetchRetry through a per-call lane source.
func (r *DynReceiver) SetLaneSource(src LaneSource) { r.source = src }

// NewDynReceiver claims the metadata slot at off in mr (DynMetaSize bytes
// reserved; the ack word stays unused on this side) for an edge whose
// sender is reached via ch.
func NewDynReceiver(ch *Channel, mr *MemRegion, off int) (*DynReceiver, error) {
	slot, err := NewStaticReceiver(mr, off, dynMetaFlagOff)
	if err != nil {
		return nil, err
	}
	return &DynReceiver{slot: slot, sender: ch.Remote(), lanes: []*Channel{ch}}, nil
}

// Desc returns the metadata slot's address for distribution to the sender.
func (r *DynReceiver) Desc() DynSlotDesc {
	return DynSlotDesc{Region: r.slot.mr.Descriptor(), Off: r.slot.off}
}

// Close is a no-op: the receiver registers no region of its own (the reuse
// ack is an inline control word). It remains for callers that pair every
// receiver with a teardown.
func (r *DynReceiver) Close() {}

// Poll checks the metadata flag; when set it decodes and returns the
// metadata (leaving the flag set until FetchRetry clears it).
func (r *DynReceiver) Poll() (DynMeta, bool) {
	if !r.slot.Poll() {
		return DynMeta{}, false
	}
	m, err := DecodeDynMeta(r.slot.Payload(), r.sender)
	if err != nil {
		// Unreachable for a full-size slot; keep Poll's signature simple.
		return DynMeta{}, false
	}
	return m, true
}

// DecodeDynMeta decodes a metadata block image (the first dynMetaFlagOff
// bytes of a slot) as written by DynSender.Send, reconstructing the source
// region with the edge's sender endpoint. It is total on arbitrary bytes:
// short input errors, an out-of-range rank is clamped, and no input panics.
func DecodeDynMeta(b []byte, sender string) (DynMeta, error) {
	if len(b) < dynMetaFlagOff {
		return DynMeta{}, fmt.Errorf("rdma: short dyn metadata block (%d bytes)", len(b))
	}
	m := DynMeta{
		DType:       binary.LittleEndian.Uint32(b),
		SrcOff:      binary.LittleEndian.Uint64(b[88:]),
		PayloadSize: binary.LittleEndian.Uint64(b[96:]),
	}
	rank := binary.LittleEndian.Uint32(b[4:])
	if rank > MaxDims {
		rank = MaxDims
	}
	m.Dims = make([]uint64, rank)
	for i := range m.Dims {
		m.Dims[i] = binary.LittleEndian.Uint64(b[8+8*i:])
	}
	m.Src = RemoteRegion{
		Endpoint: sender,
		RegionID: binary.LittleEndian.Uint32(b[72:]),
		Size:     binary.LittleEndian.Uint64(b[80:]),
	}
	return m, nil
}

// dynAck addresses the ack word of a sender's scratch block.
func dynAck(scratch DynSlotDesc) DynSlotDesc {
	scratch.Off += dynMetaAckOff
	return scratch
}

// DynSender owns the sender-side scratch block for one dynamic edge: an
// ack-gated slot whose payload is the staged metadata image, with the ack
// word the receiver writes back right after its flag.
type DynSender struct {
	*ackSlot
}

// NewDynSender claims DynMetaSize bytes at off in mr as scratch for sends to
// the given receiver metadata slot.
func NewDynSender(ch *Channel, mr *MemRegion, off int, meta DynSlotDesc) (*DynSender, error) {
	slot, err := newAckSlot(ch, mr, off, off+dynMetaAckOff,
		StaticSlotDesc{Region: meta.Region, Off: meta.Off, PayloadSize: dynMetaFlagOff})
	if err != nil {
		return nil, err
	}
	return &DynSender{slot}, nil
}

// ScratchDesc returns the scratch block's address, which the receiver needs
// for ack writes.
func (s *DynSender) ScratchDesc() DynSlotDesc {
	return DynSlotDesc{Region: s.s.mr.Descriptor(), Off: s.s.off}
}

// Send stages the metadata describing payload[payloadOff, +payloadSize) of
// payloadMR and writes it (with flag) to the receiver's metadata slot. The
// payload itself stays put — the receiver pulls it with an RDMA read.
// Returns ErrBusy if the previous transfer has not been acked yet.
func (s *DynSender) Send(payloadMR *MemRegion, payloadOff, payloadSize int,
	dtype uint32, dims []uint64, cb func(error)) error {
	var img [dynMetaFlagOff]byte
	if err := encodeDynMeta(img[:], payloadMR, payloadOff, payloadSize, dtype, dims); err != nil {
		return err
	}
	return s.send(s.s.ch, img[:], 0, cb)
}

// encodeDynMeta validates one transfer's description and encodes its
// metadata image (the layout above, flag excluded) into the zeroed b.
func encodeDynMeta(b []byte, payloadMR *MemRegion, payloadOff, payloadSize int,
	dtype uint32, dims []uint64) error {
	if len(dims) > MaxDims {
		return fmt.Errorf("rdma: rank %d exceeds MaxDims %d: %w", len(dims), MaxDims, ErrBadConfig)
	}
	if _, err := payloadMR.Slice(payloadOff, payloadSize); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b, dtype)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(dims)))
	for i, d := range dims {
		binary.LittleEndian.PutUint64(b[8+8*i:], d)
	}
	binary.LittleEndian.PutUint32(b[72:], payloadMR.ID())
	binary.LittleEndian.PutUint64(b[80:], uint64(payloadMR.Size()))
	binary.LittleEndian.PutUint64(b[88:], uint64(payloadOff))
	binary.LittleEndian.PutUint64(b[96:], uint64(payloadSize))
	return nil
}
