package rdma

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Per-tensor selective retransmit over a lossy fabric.
//
// Reliable-connected QPs recover by replaying the transfer; at hyperscale
// that go-back-N replays everything behind one lost packet (arXiv
// 2606.20582). Here every payload chunk carries a (tensor-id, chunk-seq,
// epoch) header, the receiver NACKs exactly the chunks it lost, and the
// sender re-sends only those, never into an iteration that moved on (an
// epoch guard discards stale chunks, see placeChunk).
//
// The protocol is a policy of the striped static-write engine: each chunk
// round goes through sendStripedOn with the tag on the work request, each
// attempt through StaticSender.sendRetryFrom. Only the commit differs:
// instead of one flag after all stripes, each lane's batch ends with a
// posted-mark word. Only tagged chunks are droppable (Hooks.Lossy/
// ChunkDrop); descriptor, marks, NACKs and acks are reliable inline
// one-word writes (postControl).
//
// Lossy slot layout, after the payload of a static slot:
//
//	off                 payload             (alignUp(payloadSize) bytes)
//	+alignUp(P)         flag                (legacy tail word, unused here)
//	+alignUp(P)+8       epoch guard         (oldest epoch still accepted)
//	+alignUp(P)+16      arrival[MaxStripes] (chunk i's word = epoch when landed)
//	+alignUp(P)+144     marks[MaxStripes]   (lane l's posted mark, markWord)
//	+alignUp(P)+272     RetransmitDesc      (32 bytes, epoch word last)

const (
	// lossyArrivalWords is the arrival table length (chunks ≤ MaxStripes).
	lossyArrivalWords = MaxStripes
	// LossyTailSize is the metadata appended to a lossy slot's payload:
	// flag + guard + arrival table + mark table + descriptor.
	LossyTailSize = FlagWordSize + 8 + lossyArrivalWords*8 + MaxStripes*8 + ctlDescWireSize
)

// LossySlotSize returns the region bytes needed for a lossy static slot
// holding payloadSize payload bytes.
func LossySlotSize(payloadSize int) int {
	return alignUp(payloadSize) + LossyTailSize
}

// lossySlotLayout holds a slot's absolute control-word offsets.
type lossySlotLayout struct {
	flag, guard, arrival, marks, desc int
}

func lossyLayout(off, payloadSize int) lossySlotLayout {
	flag := off + alignUp(payloadSize)
	arrival := flag + FlagWordSize + 8
	marks := arrival + lossyArrivalWords*8
	return lossySlotLayout{flag: flag, guard: flag + FlagWordSize, arrival: arrival,
		marks: marks, desc: marks + MaxStripes*8}
}

// markWord is a lane's posted mark for the round of epoch e answering NACK
// seq (seq 0: the first blast). Epoch-major, so a mark an older epoch left
// behind never covers a round of a newer one (for epochs below 2^32).
func markWord(e, seq uint64) uint64 { return e<<32 | seq&0xffffffff }

// --- sender ---

// LossySender drives the lossy protocol for one static edge. It embeds the
// StaticSender (same staging buffer, same slot descriptor — the receiver's
// region is just LossySlotSize large) and replaces the flag commit with
// announce → chunk blast → NACK-driven retransmit → completion ack.
type LossySender struct {
	*StaticSender
	tensorID uint64
	scratch  *MemRegion // the NackDesc the receiver writes: missing@8 seq@16 epoch@24
	lay      lossySlotLayout
	epoch    uint64 // owned by the running attempt (attempts and sends are serial)

	retransmits atomic.Int64 // chunks selectively re-sent
	nacksSeen   atomic.Int64 // NACKs acted upon
	announces   atomic.Int64 // epoch announcements (whole-tensor sends)
	sends       atomic.Int64 // SendRetry-level operations
}

// NewLossySender wraps a StaticSender for the lossy protocol. The remote
// slot (desc) must have been allocated with LossySlotSize.
func NewLossySender(s *StaticSender, tensorID uint64) (*LossySender, error) {
	if s.desc.PayloadSize <= 0 ||
		uint64(s.desc.Off+LossySlotSize(s.desc.PayloadSize)) > s.desc.Region.Size {
		return nil, fmt.Errorf("rdma: remote slot [%d,+%d) of %d bytes is not a lossy slot: %w",
			s.desc.Off, LossySlotSize(s.desc.PayloadSize), s.desc.Region.Size, ErrBounds)
	}
	scratch, err := s.mr.dev.AllocateMemRegion(ctlDescWireSize)
	if err != nil {
		return nil, err
	}
	return &LossySender{StaticSender: s, tensorID: tensorID, scratch: scratch,
		lay: lossyLayout(s.desc.Off, s.desc.PayloadSize)}, nil
}

// Close releases the sender's NACK block.
func (s *LossySender) Close() { s.mr.dev.FreeMemRegion(s.scratch) }

// NackScratch returns the address of the sender's inbound NACK block; the
// receiver needs it before it can NACK or ack.
func (s *LossySender) NackScratch() DynSlotDesc {
	return DynSlotDesc{Region: s.scratch.Descriptor(), Off: 0}
}

// Retransmits reports chunks selectively re-sent; Nacks the NACKs served;
// FullResends how many epoch announcements exceeded one per send — i.e.
// whole-tensor replays, which selective retransmit exists to avoid.
func (s *LossySender) Retransmits() int64 { return s.retransmits.Load() }
func (s *LossySender) Nacks() int64       { return s.nacksSeen.Load() }
func (s *LossySender) FullResends() int64 { return s.announces.Load() - s.sends.Load() }

// SendRetry transmits the staging buffer over the lossy protocol, blocking
// until the receiver acked complete arrival. Chunk loss is recovered
// in-protocol; only control-plane failures consume the retry budget, and
// each such retry announces a fresh epoch.
func (s *LossySender) SendRetry(opts TransferOpts) error { return s.SendRetryFrom(nil, opts) }

// SendRetryFrom is SendRetry for an unstaged payload, copied into staging
// lane by lane while the first chunks are already on the wire.
func (s *LossySender) SendRetryFrom(payload []byte, opts TransferOpts) error {
	return await(func(fin func(error)) { s.SendRetryFromAsync(payload, opts, fin) })
}

// SendRetryFromAsync is SendRetryFrom without the wait: fin fires exactly
// once with the outcome; a nil payload sends the staging buffer as it is.
func (s *LossySender) SendRetryFromAsync(payload []byte, opts TransferOpts, fin func(error)) {
	s.sendRetryFrom(payload, opts, s, fin)
}

// lossyRound makes one sendStripedOn call a round of the lossy protocol:
// the chunks in mask go out tagged, and each lane's batch ends with its
// posted mark for the round.
type lossyRound struct {
	s     *LossySender
	epoch uint64
	seq   uint64 // the NACK this round answers; 0 for the first blast
	mask  uint64
}

// sends reports whether the round carries chunk i; the lossless path (a
// nil round) carries every chunk.
func (r *lossyRound) sends(i int) bool { return r == nil || r.mask&(uint64(1)<<uint(i)) != 0 }

// chunk tags chunk i's write. It carries no completion callback: a chunk's
// fate is learned from the marks and NACKs.
func (r *lossyRound) chunk(req MemcpyReq, i int) MemcpyReq {
	req.tag = &writeTag{kind: tagChunk, guardOff: r.s.lay.guard, arrivalOff: r.s.lay.arrival,
		tag: ChunkTag{TensorID: r.s.tensorID, Seq: uint32(i), Epoch: r.epoch}}
	return req
}

// mark is lane's posted-mark write, queued behind the lane's chunks on the
// same QP: once it lands, each of them has landed or been dropped.
func (r *lossyRound) mark(lane, localOff int, cb func(error)) MemcpyReq {
	w := ctlWord{r.s.lay.marks + 8*lane, markWord(r.epoch, r.seq)}
	return w.req(r.s.mr, localOff, r.s.desc.Region, cb)
}

// attempt is one epoch: announce, blast every chunk, then serve NACKs until
// the completion ack or the deadline (a blackholed tensor fails typed with
// ErrTimeout, fatal in retryLoop). A failed announce or mark fails the
// attempt.
func (s *LossySender) attempt(lanes []*Channel, payload []byte, o TransferOpts) error {
	chunks := EffectiveStripes(alignUp(s.desc.PayloadSize), o.Stripes)
	lanes = lanes[:min(len(lanes), chunks)]
	s.epoch++
	e := s.epoch
	s.announces.Add(1)
	failed := make(chan error, 1)
	failOnce := firstOnly(func() {}, func(err error) { failed <- err })
	fail := func(err error) {
		if err != nil {
			failOnce(err)
		}
	}
	// The descriptor queues ahead of lane 0's chunks; no mark matters to
	// the receiver before it lands.
	d := RetransmitDesc{TensorID: s.tensorID, Chunks: uint32(chunks), Lanes: uint32(len(lanes)),
		PayloadSize: uint64(s.desc.PayloadSize), Epoch: e}
	postControl(lanes[0], s.mr, s.off, s.desc.Region, ctlWords(s.lay.desc, d.words()), fail)
	all := uint64(1)<<uint(chunks) - 1
	round := func(payload []byte, mask, seq uint64) {
		_ = s.sendStripedOn(lanes, payload, o.Stripes, o.OnStripe, o.OnDoorbell,
			&lossyRound{s: s, epoch: e, seq: seq, mask: mask}, fail)
	}
	round(payload, all, 0)
	var lastSeq uint64
	var err error
	label := func() string { return fmt.Sprintf("lossy send epoch %d to %s", e, s.ch.Remote()) }
	werr := waitCond(o, label, func() bool {
		select {
		case err = <-failed:
			return true
		default:
		}
		// Epoch first: the receiver writes it last, and posts a NACK only
		// after the previous one was served, so seq and missing are whole.
		if s.scratch.LoadWord(24) != e {
			return false
		}
		seq := s.scratch.LoadWord(16)
		if seq == lastSeq {
			return false
		}
		lastSeq = seq
		missing := s.scratch.LoadWord(8) & all
		if missing == 0 {
			return true
		}
		n := bits.OnesCount64(missing)
		s.nacksSeen.Add(1)
		s.retransmits.Add(int64(n))
		if o.OnRetransmit != nil {
			o.OnRetransmit(n)
		}
		round(nil, missing, seq)
		return false
	})
	if werr != nil {
		return werr
	}
	return err
}

// --- receiver ---

// LossyReceiverConfig tunes a LossyReceiver.
type LossyReceiverConfig struct {
	// OnNack, if non-nil, observes each posted NACK with its missing-chunk
	// count (metrics hook).
	OnNack func(missing int)
	// Source, when set, supplies the channel for each NACK/ack post (QP
	// mux mode); otherwise the constructor channel is used.
	Source LaneSource
}

// LossyReceiver owns one lossy static slot: the StaticReceiver's slot (its
// Desc and Payload serve unchanged), committed by the lossy protocol
// instead of the flag. Poll drives the whole receive side.
type LossyReceiver struct {
	*StaticReceiver
	tensorID uint64
	lay      lossySlotLayout
	ch       *Channel
	source   LaneSource
	onNack   func(int)

	mu            sync.Mutex
	senderScratch DynSlotDesc
	haveScratch   bool
	closed        bool
	curEpoch      uint64
	chunks, lanes int
	seq           uint64 // last NACK seq of this epoch
	complete      bool
	consumed      uint64   // last epoch consumed by the application
	out           NackDesc // the header to deliver
	dirty         bool     // out is still to be posted
}

// NewLossyReceiver claims [off, off+LossySlotSize(payloadSize)) of mr as a
// lossy receive slot. ch reaches the edge's sender; it is used for control
// posts unless cfg.Source overrides per post.
func NewLossyReceiver(ch *Channel, mr *MemRegion, off, payloadSize int,
	tensorID uint64, cfg LossyReceiverConfig) (*LossyReceiver, error) {
	if off%8 != 0 {
		return nil, fmt.Errorf("rdma: lossy slot offset %d not 8-aligned: %w", off, ErrBadConfig)
	}
	if _, err := mr.Slice(off, LossySlotSize(payloadSize)); err != nil {
		return nil, err
	}
	r := &LossyReceiver{StaticReceiver: &StaticReceiver{mr: mr, off: off, payloadSize: payloadSize},
		tensorID: tensorID, lay: lossyLayout(off, payloadSize), ch: ch, source: cfg.Source,
		onNack: cfg.OnNack}
	for w := r.lay.guard; w < off+LossySlotSize(payloadSize); w += 8 {
		mr.ClearFlag(w)
	}
	return r, nil
}

// Close stops the receiver's control posts (a failed ack is otherwise
// re-posted until it lands).
func (r *LossyReceiver) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// SetSenderScratch installs the sender's NACK block address; until it is
// known the receiver cannot NACK or ack.
func (r *LossyReceiver) SetSenderScratch(d DynSlotDesc) {
	r.mu.Lock()
	r.senderScratch, r.haveScratch = d, true
	r.flushLocked()
	r.mu.Unlock()
}

// Poll advances the receive protocol and reports whether a complete,
// unconsumed tensor is available, like StaticReceiver.Poll.
//
// The receiver NACKs only once every lane's mark covers the latest round,
// i.e. the round that last carried each missing chunk: the QP executes in
// order, so each such chunk has landed or been dropped, and a missing
// arrival stamp is a loss, never a chunk in flight. Retransmits therefore
// equal drops, whatever the host's load.
func (r *LossyReceiver) Poll() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	e := r.mr.LoadWord(r.lay.desc + 24)
	if e == 0 || e == r.consumed || (e != r.curEpoch && !r.beginEpochLocked(e)) {
		return false
	}
	if r.complete {
		return true
	}
	// Marks before stamps, so every stamp read below is final.
	settled := true
	for l := 0; l < r.lanes; l++ {
		settled = settled && r.mr.LoadWord(r.lay.marks+8*l) >= markWord(e, r.seq)
	}
	var missing uint64
	for i := 0; i < r.chunks; i++ {
		if r.mr.LoadWord(r.lay.arrival+8*i) != e {
			missing |= uint64(1) << uint(i)
		}
	}
	switch {
	case missing == 0:
		// Retire the epoch before exposing the payload: nothing of it may
		// be re-stored into memory the consumer reads.
		_ = r.mr.storeGuarded(r.lay.guard, e+1)
		r.complete = true
		r.postLocked(0, e)
		return true
	case settled:
		if r.onNack != nil {
			r.onNack(bits.OnesCount64(missing))
		}
		r.postLocked(missing, e)
	}
	return false
}

// beginEpochLocked adopts the descriptor announcing epoch e, or reports
// false for a torn or foreign one (the epoch word lands last, so a later
// poll sees it whole).
func (r *LossyReceiver) beginEpochLocked(e uint64) bool {
	var buf [ctlDescWireSize]byte
	for i := 0; i < ctlDescWireSize; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], r.mr.LoadWord(r.lay.desc+i))
	}
	d, _ := UnmarshalRetransmitDesc(buf[:])
	if d.Epoch != e || d.TensorID != r.tensorID || d.PayloadSize != uint64(r.payloadSize) ||
		d.Chunks == 0 || d.Chunks > lossyArrivalWords || d.Lanes == 0 || d.Lanes > MaxStripes {
		return false
	}
	r.curEpoch, r.chunks, r.lanes = e, int(d.Chunks), int(d.Lanes)
	r.complete, r.seq = false, 0
	return true
}

// postLocked posts the epoch's next control header: a NACK, or the
// completion ack when missing is 0.
func (r *LossyReceiver) postLocked(missing, e uint64) {
	r.seq++
	r.out = NackDesc{TensorID: r.tensorID, Missing: missing, Seq: r.seq, Epoch: e}
	r.dirty = true
	r.flushLocked()
}

// flushLocked posts out if it is still to be posted. A failed post is
// re-posted from its completion unless a newer header superseded it:
// nobody polls a consumed edge, yet the sender blocks on its ack.
func (r *LossyReceiver) flushLocked() {
	if !r.dirty || !r.haveScratch || r.closed {
		return
	}
	ch, release, err := laneFor(r.source, r.ch.Remote(), r.ch)
	if err != nil {
		return // still dirty: the next Poll retries
	}
	r.dirty = false
	d := r.out
	postControl(ch, r.mr, r.lay.flag, r.senderScratch.Region,
		ctlWords(r.senderScratch.Off, d.words()), func(err error) {
			release()
			if err != nil {
				time.AfterFunc(DefaultBackoff, func() { r.repost(d) })
			}
		})
}

func (r *LossyReceiver) repost(d NackDesc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.out == d {
		r.dirty = true
		r.flushLocked()
	}
}

// Consume marks the current epoch consumed, so Poll reports false until
// the next epoch is announced. A pending completion ack still goes out.
func (r *LossyReceiver) Consume() {
	r.mu.Lock()
	if r.complete {
		r.consumed = r.curEpoch
		r.complete = false
	}
	r.flushLocked()
	r.mu.Unlock()
}

// Wait blocks until a complete tensor arrived (Poll true) or the opts
// deadline expires, like StaticReceiver.Wait.
func (r *LossyReceiver) Wait(opts TransferOpts) error {
	return waitCond(opts, func() string { return "lossy recv" }, r.Poll)
}
