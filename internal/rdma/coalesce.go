package rdma

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Small-message coalescing: tensors below a size threshold bound for the
// same peer share one slot instead of paying a full slot + flag round-trip
// each. The sender stages sub-messages with the wire batch framing
// (count-prefixed, length-delimited — see wire.BatchWriter), then flushes
// payload and tail flag to the receiver's slot in one ascending write, so
// the §3.2 flag contract is unchanged: a set flag means the whole batch
// landed. Slot reuse is gated by a one-word ack the receiver posts after it
// consumed the batch, like the dynamic protocol's reuse ack.

// CoalescedSlotDesc addresses a receiver-side coalesced slot.
type CoalescedSlotDesc struct {
	Region RemoteRegion
	// Off is the slot's offset in the region.
	Off int
	// Capacity is the batch payload capacity in bytes (framing included,
	// tail flag excluded).
	Capacity int
}

// Marshal encodes the descriptor for address distribution.
func (d CoalescedSlotDesc) Marshal() []byte {
	buf := make([]byte, 0, 16+d.Region.wireSize())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Off))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Capacity))
	return append(buf, d.Region.Marshal()...)
}

// UnmarshalCoalescedSlotDesc decodes a descriptor produced by Marshal.
func UnmarshalCoalescedSlotDesc(buf []byte) (CoalescedSlotDesc, error) {
	var d CoalescedSlotDesc
	if len(buf) < 16 {
		return d, fmt.Errorf("rdma: short coalesced slot descriptor (%d bytes)", len(buf))
	}
	d.Off = int(binary.LittleEndian.Uint64(buf))
	d.Capacity = int(binary.LittleEndian.Uint64(buf[8:]))
	region, err := UnmarshalRemoteRegion(buf[16:])
	if err != nil {
		return d, err
	}
	d.Region = region
	return d, nil
}

// CoalescedReceiver owns one batch slot fed by a single peer's
// CoalescedSender.
type CoalescedReceiver struct {
	mr       *MemRegion
	off      int
	capacity int
	ch       *Channel   // channel to the sender, for ack writes
	ackSrc   *MemRegion // one word containing FlagSet
	// source, when set, supplies AckRetry's channel per attempt (QP mux).
	source LaneSource
}

// SetLaneSource routes AckRetry through a per-attempt lane source.
func (r *CoalescedReceiver) SetLaneSource(src LaneSource) { r.source = src }

// NewCoalescedReceiver claims [off, off+StaticSlotSize(capacity)) of mr as
// the batch slot for a sender reached via ch, and clears its flag.
func NewCoalescedReceiver(ch *Channel, mr *MemRegion, off, capacity int) (*CoalescedReceiver, error) {
	if off%8 != 0 {
		return nil, fmt.Errorf("rdma: coalesced slot offset %d not 8-aligned: %w", off, ErrBadConfig)
	}
	if capacity < wire.BatchHeaderSize {
		return nil, fmt.Errorf("rdma: coalesced slot capacity %d below batch header %d: %w",
			capacity, wire.BatchHeaderSize, ErrBadConfig)
	}
	if _, err := mr.Slice(off, StaticSlotSize(capacity)); err != nil {
		return nil, err
	}
	ackSrc, err := mr.dev.AllocateMemRegion(FlagWordSize)
	if err != nil {
		return nil, err
	}
	ackSrc.SetFlagLocal(0)
	r := &CoalescedReceiver{mr: mr, off: off, capacity: capacity, ch: ch, ackSrc: ackSrc}
	mr.ClearFlag(r.flagOff())
	return r, nil
}

func (r *CoalescedReceiver) flagOff() int { return r.off + alignUp(r.capacity) }

// Desc returns the remotely shareable slot address.
func (r *CoalescedReceiver) Desc() CoalescedSlotDesc {
	return CoalescedSlotDesc{Region: r.mr.Descriptor(), Off: r.off, Capacity: r.capacity}
}

// Poll reports whether a complete batch has arrived (acquire semantics).
func (r *CoalescedReceiver) Poll() bool { return r.mr.PollFlag(r.flagOff()) }

// Messages decodes the arrived batch. Valid only after Poll returned true
// and before Consume; payloads alias the slot, so callers keeping them past
// Consume must copy.
func (r *CoalescedReceiver) Messages() ([]wire.SubMsg, error) {
	return wire.DecodeBatch(r.mr.Bytes()[r.off : r.off+r.capacity])
}

// Consume clears the flag for the next batch. The sender still cannot
// overwrite the slot until AckRetry posted the reuse ack.
func (r *CoalescedReceiver) Consume() { r.mr.ClearFlag(r.flagOff()) }

// AckRetry posts the reuse ack into the sender's ack word, unblocking its
// next Flush. Call after Consume (and after copying any payloads out); the
// ack is a constant one-word write, so retrying it is idempotent.
func (r *CoalescedReceiver) AckRetry(senderAck DynSlotDesc, opts TransferOpts) error {
	return retryLoop(opts, fmt.Sprintf("coalesced ack to %s", r.ch.Remote()), func() error {
		ch, release, err := laneFor(r.source, r.ch.Remote(), r.ch)
		if err != nil {
			return err
		}
		defer release()
		return ch.MemcpySync(0, r.ackSrc, senderAck.Off, senderAck.Region,
			FlagWordSize, OpWrite)
	})
}

// CoalescedSender stages sub-messages for one peer's batch slot and flushes
// them as a single flagged write.
type CoalescedSender struct {
	ch       *Channel
	mr       *MemRegion
	off      int
	capacity int
	desc     CoalescedSlotDesc
	w        *wire.BatchWriter
	// source, when set, supplies FlushRetry's channel per attempt (QP mux).
	source  LaneSource
	started atomic.Bool // atomic: flushers and scheduler pollers race
}

// SetLaneSource routes FlushRetry through a per-attempt lane source.
func (s *CoalescedSender) SetLaneSource(src LaneSource) { s.source = src }

// NewCoalescedSender claims [off, off+StaticSlotSize(capacity)+FlagWordSize)
// of mr: the staging batch, the staged tail flag, and the ack word the
// receiver writes back.
func NewCoalescedSender(ch *Channel, mr *MemRegion, off int, desc CoalescedSlotDesc) (*CoalescedSender, error) {
	if off%8 != 0 {
		return nil, fmt.Errorf("rdma: coalesced staging offset %d not 8-aligned: %w", off, ErrBadConfig)
	}
	if desc.Region.Endpoint != ch.Remote() {
		return nil, fmt.Errorf("rdma: coalesced slot on %s but channel to %s: %w",
			desc.Region.Endpoint, ch.Remote(), ErrBadConfig)
	}
	if _, err := mr.Slice(off, StaticSlotSize(desc.Capacity)+FlagWordSize); err != nil {
		return nil, err
	}
	w, err := wire.NewBatchWriter(mr.Bytes()[off : off+desc.Capacity])
	if err != nil {
		return nil, err
	}
	s := &CoalescedSender{ch: ch, mr: mr, off: off, capacity: desc.Capacity, desc: desc, w: w}
	mr.ClearFlag(s.ackOff())
	return s, nil
}

func (s *CoalescedSender) flagOff() int { return s.off + alignUp(s.capacity) }
func (s *CoalescedSender) ackOff() int  { return s.flagOff() + FlagWordSize }

// AckDesc returns the address of the sender's ack word for the receiver.
func (s *CoalescedSender) AckDesc() DynSlotDesc {
	return DynSlotDesc{Region: s.mr.Descriptor(), Off: s.ackOff()}
}

// Stage appends one sub-message to the pending batch. The batch buffer is
// only safe to mutate while the previous flush has been acked; callers
// serialize Stage/Flush per sender (the distributed layer holds a group
// lock).
func (s *CoalescedSender) Stage(id uint32, payload []byte) error {
	return s.w.Append(id, payload)
}

// Reset empties the pending batch (start of a new iteration's staging).
func (s *CoalescedSender) Reset() { s.w.Reset() }

// Count reports the sub-messages staged since the last Reset.
func (s *CoalescedSender) Count() int { return s.w.Count() }

// StagedBytes reports the encoded batch size so far.
func (s *CoalescedSender) StagedBytes() int { return s.w.Len() }

// PollReusable reports whether the previous batch has been acked (or none
// was sent yet), i.e. whether Flush may transmit.
func (s *CoalescedSender) PollReusable() bool {
	if !s.started.Load() {
		return true
	}
	return s.mr.PollFlag(s.ackOff())
}

// Flush transmits the staged batch: payload and tail flag in one ascending
// write, exactly like StaticSender.Send, so the flag is never visible before
// the full batch. Returns ErrBusy while the previous batch is unacked. cb
// fires on a CQ poller when the write completes locally.
func (s *CoalescedSender) Flush(cb func(error)) error { return s.flushOn(s.ch, cb) }

// flushOn is Flush over an explicit channel (per-attempt lane acquisition).
func (s *CoalescedSender) flushOn(ch *Channel, cb func(error)) error {
	if !s.PollReusable() {
		return ErrBusy
	}
	s.started.Store(true)
	s.mr.ClearFlag(s.ackOff())
	s.mr.SetFlagLocal(s.flagOff())
	return ch.Memcpy(s.off, s.mr, s.desc.Off, s.desc.Region,
		StaticSlotSize(s.capacity), OpWrite, cb)
}

// FlushRetry is Flush blocking until the write completed, retrying ErrBusy
// (ack still in flight) and transient fabric faults within the opts budget.
// A failed attempt never made the flag visible, so re-sending the identical
// batch is safe; the ack the attempt cleared is re-armed so the next attempt
// does not deadlock on its own busy check.
func (s *CoalescedSender) FlushRetry(opts TransferOpts) error {
	start := time.Now()
	staged := s.w.Len()
	err := retryLoop(opts, fmt.Sprintf("coalesced flush %dB to %s", staged, s.ch.Remote()),
		func() error {
			ch, release, lerr := laneFor(s.source, s.ch.Remote(), s.ch)
			if lerr != nil {
				return lerr
			}
			defer release()
			done := make(chan error, 1)
			if err := s.flushOn(ch, notifyOnce(done)); err != nil {
				return err
			}
			err := <-done
			if err != nil {
				// The failed write never reached the receiver, so no ack will
				// arrive for it: re-arm the ack word Flush cleared.
				s.mr.SetFlagLocal(s.ackOff())
			}
			return err
		})
	return observeComplete(opts, staged, start, err)
}
