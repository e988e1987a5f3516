package rdma

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
)

// Multi-QP striping: one logical transfer is chunked into several Memcpys
// issued on distinct channels of the per-peer QP group, so a large tensor
// can use the fabric parallelism the device model provides (§2.3 groups
// multiple QPs per peer with CQs assigned round-robin for exactly this).
//
// The §3.2/§3.3 protocols stay intact: payload stripes carry no flags, and
// the tail flag is written (static path) or the reuse ack posted (dyn path)
// only after every stripe's completion has been observed. The emulator posts
// a transfer's completion after the remote memory is written, matching a
// real RC QP where a write's completion implies remote placement, so
// flag-after-all-stripes preserves the invariant that a set flag means the
// whole payload landed.

// MaxStripes bounds the stripe count of one transfer (and the per-lane
// metrics arrays sized off it).
const MaxStripes = 16

// stripeAlign keeps every stripe boundary 8-byte aligned so the word-atomic
// tail of each chunk's orderedCopy never straddles chunks.
const stripeAlign = 8

// StripeDesc describes how one payload is split across lanes.
type StripeDesc struct {
	// PayloadSize is the total transfer size in bytes.
	PayloadSize uint64
	// Stripes is the requested lane count; Chunks clamps it to
	// [1, MaxStripes] and to the payload size.
	Stripes uint32
}

// stripeDescWireSize is the encoded size of a StripeDesc.
const stripeDescWireSize = 12

// Marshal encodes the descriptor (payloadSize u64, stripes u32, both LE).
func (d StripeDesc) Marshal() []byte {
	buf := make([]byte, stripeDescWireSize)
	binary.LittleEndian.PutUint64(buf, d.PayloadSize)
	binary.LittleEndian.PutUint32(buf[8:], d.Stripes)
	return buf
}

// UnmarshalStripeDesc decodes a descriptor produced by Marshal.
func UnmarshalStripeDesc(buf []byte) (StripeDesc, error) {
	if len(buf) < stripeDescWireSize {
		return StripeDesc{}, fmt.Errorf("rdma: short stripe descriptor (%d bytes)", len(buf))
	}
	return StripeDesc{
		PayloadSize: binary.LittleEndian.Uint64(buf),
		Stripes:     binary.LittleEndian.Uint32(buf[8:]),
	}, nil
}

// StripeChunk is one contiguous piece of a striped payload.
type StripeChunk struct {
	Off, Size int
}

// Chunks partitions [0, PayloadSize) into at most min(Stripes, MaxStripes)
// disjoint, covering, non-empty chunks whose boundaries are 8-byte aligned
// (the last chunk absorbs the remainder). It is total on arbitrary
// descriptors: a zero payload yields nil, and out-of-range stripe counts are
// clamped rather than rejected.
func (d StripeDesc) Chunks() []StripeChunk {
	size := int(d.PayloadSize)
	if size <= 0 || uint64(size) != d.PayloadSize {
		return nil
	}
	n := int(d.Stripes)
	if n < 1 {
		n = 1
	}
	if n > MaxStripes {
		n = MaxStripes
	}
	if n > size {
		n = size
	}
	chunk := (size + n - 1) / n
	chunk = (chunk + stripeAlign - 1) / stripeAlign * stripeAlign
	chunks := make([]StripeChunk, 0, n)
	for off := 0; off < size; off += chunk {
		sz := chunk
		if off+sz > size {
			sz = size - off
		}
		chunks = append(chunks, StripeChunk{Off: off, Size: sz})
	}
	return chunks
}

// EffectiveStripes reports how many chunks a transfer of payloadSize bytes
// is actually split into at the requested stripe count (small payloads use
// fewer lanes than requested).
func EffectiveStripes(payloadSize, stripes int) int {
	return len(StripeDesc{PayloadSize: uint64(payloadSize), Stripes: uint32(stripes)}.Chunks())
}

// stripeJoin tracks the completions of one striped transfer: done fires
// exactly once, after every chunk completed, with the first error observed.
// Per-chunk callbacks are deduplicated so an injected duplicate completion
// cannot make the join fire before all stripes truly landed.
type stripeJoin struct {
	pending atomic.Int32
	seen    []atomic.Bool // per-chunk completion dedup
	err     atomic.Pointer[error]
	done    func(error)
}

func newStripeJoin(n int, done func(error)) *stripeJoin {
	j := &stripeJoin{seen: make([]atomic.Bool, n), done: done}
	j.pending.Store(int32(n))
	return j
}

// chunkCB returns the completion callback for chunk i.
func (j *stripeJoin) chunkCB(i int) func(error) {
	return func(err error) {
		if !j.seen[i].CompareAndSwap(false, true) {
			return // duplicated completion
		}
		if err != nil {
			j.err.CompareAndSwap(nil, &err)
		}
		if j.pending.Add(-1) == 0 {
			var first error
			if p := j.err.Load(); p != nil {
				first = *p
			}
			j.done(first)
		}
	}
}

// AddLane registers an additional channel for striped sends. All lanes must
// target the edge's remote endpoint; callers pass distinct QP indices so the
// stripes actually ride different queue pairs.
func (s *StaticSender) AddLane(ch *Channel) error {
	if ch.Remote() != s.ch.Remote() {
		return fmt.Errorf("rdma: lane to %s on edge to %s: %w", ch.Remote(), s.ch.Remote(), ErrBadConfig)
	}
	if len(s.lanes) >= MaxStripes {
		return fmt.Errorf("rdma: lane count exceeds MaxStripes %d: %w", MaxStripes, ErrBadConfig)
	}
	s.lanes = append(s.lanes, ch)
	return nil
}

// Lanes reports the number of channels available for striping.
func (s *StaticSender) Lanes() int { return len(s.lanes) }

// SendStriped transfers the staging buffer like Send, but splits the payload
// into up to `stripes` chunks issued round-robin over the sender's lanes,
// and writes the tail flag in a separate transfer only after every payload
// stripe completed. Each lane's chunks are posted as one doorbell batch
// (MemcpyBatch), so a lane pays one send-queue entry cost per flush instead
// of one per chunk. onStripe, if non-nil, observes (lane, bytes) for each
// issued chunk. With one effective chunk or one lane it degenerates to the
// single ascending payload+flag write of Send. cb fires on a CQ poller when
// the flag write (or the first failing stripe) completes; a failed striped
// send leaves no flag visible, so re-sending the identical bytes is safe.
func (s *StaticSender) SendStriped(stripes int, onStripe func(lane, bytes int), cb func(error)) error {
	return s.sendStripedOn(s.lanes, nil, stripes, onStripe, nil, nil, cb)
}

// sendStripedOn is the shared striped-send engine behind SendStriped,
// SendRetry, SendRetryFrom and every round of the lossy protocol,
// parameterized over the attempt's lanes (cached ones, or a per-attempt
// lease from a LaneSource). Chunk i rides lane i%L, same placement as
// always; what varies is staging and post granularity:
//
//   - payload == nil (staged/zero-copy): every chunk is already in the
//     staging buffer, so each lane's whole chunk group is posted as one
//     doorbell batch — one send-queue flush per lane instead of one per
//     chunk.
//   - payload != nil (pipelined): the copy into staging proceeds in rounds
//     of one chunk per lane; each round is posted as soon as it is copied,
//     so the wire drains round r while round r+1 is still being memcpy'd.
//     The copy/transmit overlap is bought at doorbell granularity one —
//     each flush carries a single chunk — the classic tradeoff between
//     batching posts and posting early.
//
// and the commit:
//
//   - lr == nil: the tail flag, written once every chunk completed.
//   - lr != nil (a lossy round, see retransmit.go): the chunks lr selects
//     go out tagged over the word-aligned payload, and each lane's last
//     flush carries that lane's posted mark; cb fires once every mark
//     landed. A pipelined lossy round must select every chunk.
//
// onDoorbell, if non-nil, observes each flush as (lane, requests posted).
func (s *StaticSender) sendStripedOn(lanes []*Channel, payload []byte, stripes int,
	onStripe func(lane, bytes int), onDoorbell func(lane, chunks int), lr *lossyRound,
	cb func(error)) error {
	size := s.desc.PayloadSize
	if lr != nil {
		size = alignUp(size) // tagged chunks are placed word by word
	}
	chunks := StripeDesc{PayloadSize: uint64(size), Stripes: uint32(stripes)}.Chunks()
	if lr == nil && (len(chunks) <= 1 || len(lanes) <= 1) {
		if payload != nil {
			copy(s.Buffer(), payload)
		}
		if onStripe != nil {
			onStripe(0, StaticSlotSize(s.desc.PayloadSize))
		}
		return s.sendOn(lanes[0], 0, cb)
	}
	flagOff := s.off + alignUp(s.desc.PayloadSize)
	remoteFlagOff := s.desc.Off + alignUp(s.desc.PayloadSize)
	s.mr.SetFlagLocal(flagOff)
	nl := len(lanes)
	var join *stripeJoin
	if lr != nil {
		join = newStripeJoin(nl, cb) // one completion per lane: its mark
	} else {
		join = newStripeJoin(len(chunks), func(err error) {
			if err != nil {
				cb(err)
				return
			}
			// Every payload stripe is placed remotely; ship the tail flag.
			if onStripe != nil {
				onStripe(0, FlagWordSize)
			}
			if err := lanes[0].Memcpy(flagOff, s.mr, remoteFlagOff, s.desc.Region,
				FlagWordSize, OpWrite, cb); err != nil {
				cb(err)
			}
		})
	}
	req := func(i int) MemcpyReq {
		chk := chunks[i]
		r := MemcpyReq{
			LocalOff: s.off + chk.Off, Local: s.mr,
			RemoteOff: s.desc.Off + chk.Off, Remote: s.desc.Region,
			Size: chk.Size, Dir: OpWrite,
		}
		if lr != nil {
			return lr.chunk(r, i)
		}
		r.CB = join.chunkCB(i)
		return r
	}
	flush := func(lane int, batch []MemcpyReq, last bool) {
		if lr != nil && last {
			batch = append(batch, lr.mark(lane, flagOff, join.chunkCB(lane)))
		}
		if len(batch) == 0 {
			return
		}
		if onDoorbell != nil {
			onDoorbell(lane, len(batch))
		}
		if err := lanes[lane].MemcpyBatch(batch); err != nil {
			// A failed flush posted nothing (all-or-none): count it as every
			// batched request's completion; other lanes still drain through
			// the join.
			for _, r := range batch {
				if r.CB != nil {
					r.CB(err)
				}
			}
		}
	}
	if payload == nil {
		for lane := 0; lane < nl; lane++ {
			var batch []MemcpyReq
			for i := lane; i < len(chunks); i += nl {
				if !lr.sends(i) {
					continue
				}
				if onStripe != nil {
					onStripe(lane, chunks[i].Size)
				}
				batch = append(batch, req(i))
			}
			flush(lane, batch, true)
		}
		return nil
	}
	staging := s.mr.Bytes()
	for start := 0; start < len(chunks); start += nl {
		end := start + nl
		if end > len(chunks) {
			end = len(chunks)
		}
		for i := start; i < end; i++ {
			chk := chunks[i]
			copy(staging[s.off+chk.Off:], payload[chk.Off:min(chk.Off+chk.Size, len(payload))])
		}
		for i := start; i < end; i++ {
			if onStripe != nil {
				onStripe(i%nl, chunks[i].Size)
			}
			flush(i%nl, []MemcpyReq{req(i)}, i+nl >= len(chunks))
		}
		// On a real NIC the doorbell write activates the DMA engine at once;
		// in the emulator each lane is a goroutine that must be scheduled to
		// start its wire timer. Yield after every round so the posted writes
		// are actually in flight while the next round is being copied —
		// otherwise, on a small GOMAXPROCS, the copy loop can starve the
		// lanes until the whole payload is staged and the pipeline degrades
		// to the staged path.
		runtime.Gosched()
	}
	return nil
}

// AddLane registers an additional channel for striped fetches (the dyn-path
// receiver issues the RDMA reads, so striping lives on its side).
func (r *DynReceiver) AddLane(ch *Channel) error {
	if ch.Remote() != r.sender {
		return fmt.Errorf("rdma: lane to %s on edge from %s: %w", ch.Remote(), r.sender, ErrBadConfig)
	}
	if len(r.lanes) >= MaxStripes {
		return fmt.Errorf("rdma: lane count exceeds MaxStripes %d: %w", MaxStripes, ErrBadConfig)
	}
	r.lanes = append(r.lanes, ch)
	return nil
}

// Lanes reports the number of channels available for striped fetches.
func (r *DynReceiver) Lanes() int { return len(r.lanes) }
