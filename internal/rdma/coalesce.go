package rdma

import (
	"fmt"

	"repro/internal/wire"
)

// Small-message coalescing: tensors below a size threshold bound for the
// same peer share one slot instead of paying a full slot + flag round-trip
// each. The sender stages sub-messages with the wire batch framing
// (count-prefixed, length-delimited — see wire.BatchWriter) into the
// payload of one ack-gated static slot (ackSlot), so the §3.2 flag contract
// is unchanged: a set flag means the whole batch landed. Slot reuse is gated
// by the reuse ack the receiver posts after it consumed the batch, exactly
// as on the dynamic protocol's metadata slot. The slot's descriptor is a
// StaticSlotDesc whose PayloadSize is the batch capacity.

// CoalescedReceiver owns one batch slot fed by a single peer's
// CoalescedSender.
type CoalescedReceiver struct {
	slot *StaticReceiver
	ch   *Channel // channel to the sender, for ack writes
	// source, when set, supplies AckRetry's channel per attempt (QP mux).
	source LaneSource
}

// SetLaneSource routes AckRetry through a per-attempt lane source.
func (r *CoalescedReceiver) SetLaneSource(src LaneSource) { r.source = src }

// NewCoalescedReceiver claims [off, off+StaticSlotSize(capacity)) of mr as
// the batch slot for a sender reached via ch, and clears its flag.
func NewCoalescedReceiver(ch *Channel, mr *MemRegion, off, capacity int) (*CoalescedReceiver, error) {
	if capacity < wire.BatchHeaderSize {
		return nil, fmt.Errorf("rdma: coalesced slot capacity %d below batch header %d: %w",
			capacity, wire.BatchHeaderSize, ErrBadConfig)
	}
	slot, err := NewStaticReceiver(mr, off, capacity)
	if err != nil {
		return nil, err
	}
	return &CoalescedReceiver{slot: slot, ch: ch}, nil
}

// Desc returns the remotely shareable slot address.
func (r *CoalescedReceiver) Desc() StaticSlotDesc { return r.slot.Desc() }

// Poll reports whether a complete batch has arrived (acquire semantics).
func (r *CoalescedReceiver) Poll() bool { return r.slot.Poll() }

// Messages decodes the arrived batch. Valid only after Poll returned true
// and before Consume; payloads alias the slot, so callers keeping them past
// Consume must copy.
func (r *CoalescedReceiver) Messages() ([]wire.SubMsg, error) {
	return wire.DecodeBatch(r.slot.Payload())
}

// Consume clears the flag for the next batch. The sender still cannot
// overwrite the slot until AckRetry posted the reuse ack.
func (r *CoalescedReceiver) Consume() { r.slot.Consume() }

// AckRetryAsync posts the reuse ack into the sender's ack word, unblocking
// its next FlushRetry. Call after Consume (and after copying any payloads
// out). fin fires once, from the ack's completion or its last retry, and may
// fire before AckRetryAsync returns.
func (r *CoalescedReceiver) AckRetryAsync(senderAck DynSlotDesc, opts TransferOpts, fin func(error)) {
	r.slot.AckRetryAsync(r.source, r.ch, senderAck, opts, fin)
}

// AckRetry is AckRetryAsync waited on.
func (r *CoalescedReceiver) AckRetry(senderAck DynSlotDesc, opts TransferOpts) error {
	return await(func(fin func(error)) { r.AckRetryAsync(senderAck, opts, fin) })
}

// CoalescedSender stages sub-messages for one peer's batch slot and flushes
// them as a single flagged write.
type CoalescedSender struct {
	*ackSlot
	w *wire.BatchWriter
}

// NewCoalescedSender claims [off, off+StaticSlotSize(desc.PayloadSize)+
// FlagWordSize) of mr: the staging batch, the staged tail flag, and the ack
// word the receiver writes back.
func NewCoalescedSender(ch *Channel, mr *MemRegion, off int, desc StaticSlotDesc) (*CoalescedSender, error) {
	slot, err := newAckSlot(ch, mr, off, off+StaticSlotSize(desc.PayloadSize), desc)
	if err != nil {
		return nil, err
	}
	w, err := wire.NewBatchWriter(slot.s.Buffer())
	if err != nil {
		return nil, err
	}
	return &CoalescedSender{ackSlot: slot, w: w}, nil
}

// AckDesc returns the address of the sender's ack word for the receiver.
func (s *CoalescedSender) AckDesc() DynSlotDesc {
	return DynSlotDesc{Region: s.s.mr.Descriptor(), Off: s.ack}
}

// Stage appends one sub-message to the pending batch. The batch buffer is
// only safe to mutate while the previous flush has been acked; callers
// serialize Stage/FlushRetry per sender (the distributed layer holds a
// group lock).
func (s *CoalescedSender) Stage(id uint32, payload []byte) error {
	return s.w.Append(id, payload)
}

// Reset empties the pending batch (start of a new iteration's staging).
func (s *CoalescedSender) Reset() { s.w.Reset() }

// Count reports the sub-messages staged since the last Reset.
func (s *CoalescedSender) Count() int { return s.w.Count() }

// FlushRetry transmits the staged batch — payload and tail flag in one
// ascending write, so the flag is never visible before the full batch —
// blocking until the write completed and retrying ErrBusy (previous batch
// unacked) and transient fabric faults within the opts budget. A failed
// attempt never made the flag visible, so re-sending the identical batch is
// safe.
func (s *CoalescedSender) FlushRetry(opts TransferOpts) error {
	staged := s.w.Len()
	label := func() string { return fmt.Sprintf("coalesced flush %dB to %s", staged, s.s.ch.Remote()) }
	return await(func(fin func(error)) { s.sendRetry(label, staged, nil, 0, opts, fin) })
}
