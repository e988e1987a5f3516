package rdma

import (
	"encoding/binary"
	"fmt"
)

// The lossy protocol's control plane (retransmit.go): its two headers and
// the inline one-word writes that carry them. Control writes are reliable
// (error-based completion) and never droppable; a batch of them posted on
// one QP lands in order, the epoch (validity) word last. The lossless
// protocols' reuse acks ride the same inline writes (StaticReceiver.postAck).

// ctlDescWireSize encodes either control header: four LE words.
const ctlDescWireSize = 32

// RetransmitDesc announces one send epoch to the receiver: the tensor, its
// chunk count, the lanes they ride (chunk i on lane i%Lanes), its size,
// and the epoch, which doubles as the descriptor's validity word.
type RetransmitDesc struct {
	TensorID    uint64
	Chunks      uint32
	Lanes       uint32
	PayloadSize uint64
	Epoch       uint64
}

func (d RetransmitDesc) words() [4]uint64 {
	return [4]uint64{d.TensorID, uint64(d.Chunks) | uint64(d.Lanes)<<32, d.PayloadSize, d.Epoch}
}

// Marshal encodes the descriptor (tensorID u64 | chunks u32 | lanes u32 |
// payloadSize u64 | epoch u64, all LE).
func (d RetransmitDesc) Marshal() []byte { return marshalWords(d.words()) }

// UnmarshalRetransmitDesc decodes a descriptor produced by Marshal. It is
// total on arbitrary bytes: only length is validated here — semantic
// checks (tensor identity, chunk and lane bounds, size) belong to the
// receiver, which knows what it expects.
func UnmarshalRetransmitDesc(buf []byte) (RetransmitDesc, error) {
	w, err := unmarshalWords(buf, "retransmit")
	return RetransmitDesc{TensorID: w[0], Chunks: uint32(w[1]), Lanes: uint32(w[1] >> 32),
		PayloadSize: w[2], Epoch: w[3]}, err
}

// NackDesc is the receiver→sender control header: the missing-chunk bitmap
// for one epoch of one tensor. Missing == 0 is the completion ack. Seq
// numbers an epoch's NACKs; the sender serves each once and tags the
// answering round's marks with it.
type NackDesc struct {
	TensorID uint64
	Missing  uint64 // bit i set = chunk i missing; MaxStripes ≤ 64
	Seq      uint64
	Epoch    uint64
}

func (d NackDesc) words() [4]uint64 { return [4]uint64{d.TensorID, d.Missing, d.Seq, d.Epoch} }

// Marshal encodes the header (tensorID u64 | missing u64 | seq u64 |
// epoch u64, all LE).
func (d NackDesc) Marshal() []byte { return marshalWords(d.words()) }

// UnmarshalNackDesc decodes a header produced by Marshal; total on
// arbitrary bytes of sufficient length.
func UnmarshalNackDesc(buf []byte) (NackDesc, error) {
	w, err := unmarshalWords(buf, "nack")
	return NackDesc{TensorID: w[0], Missing: w[1], Seq: w[2], Epoch: w[3]}, err
}

func marshalWords(w [4]uint64) []byte {
	buf := make([]byte, 0, ctlDescWireSize)
	for _, v := range w {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

func unmarshalWords(buf []byte, what string) ([4]uint64, error) {
	var w [4]uint64
	if len(buf) < ctlDescWireSize {
		return w, fmt.Errorf("rdma: short %s descriptor (%d bytes)", what, len(buf))
	}
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return w, nil
}

// ctlWord is one inline control write: v lands at remote offset off.
type ctlWord struct {
	off int
	v   uint64
}

// ctlWords places a control header's words at off.
func ctlWords(off int, w [4]uint64) []ctlWord {
	return []ctlWord{{off, w[0]}, {off + 8, w[1]}, {off + 16, w[2]}, {off + 24, w[3]}}
}

// req builds the word's write. The value travels in the work request, so no
// local staging can change under an in-flight post; local/localOff only
// name a registered word for the bounds checks.
func (w ctlWord) req(local *MemRegion, localOff int, remote RemoteRegion, cb func(error)) MemcpyReq {
	return MemcpyReq{LocalOff: localOff, Local: local, RemoteOff: w.off, Remote: remote,
		Size: FlagWordSize, Dir: OpWrite, CB: cb, tag: &writeTag{kind: tagWord, word: w.v}}
}

// postControl posts words as one doorbell batch on ch. A QP executes in
// order, so a reader that observes the last word (the caller's validity
// word) observes every word before it. cb fires after every write
// completed, with the first error; a single word (a reuse ack) hands its
// completion straight to cb, so callers dedup duplicated completions.
func postControl(ch *Channel, local *MemRegion, localOff int, remote RemoteRegion,
	words []ctlWord, cb func(error)) {
	var join *stripeJoin
	if len(words) > 1 {
		join = newStripeJoin(len(words), cb)
	}
	var buf [4]MemcpyReq // a header's words; no heap slice per post
	reqs := buf[:0]
	for i, w := range words {
		wcb := cb
		if join != nil {
			wcb = join.chunkCB(i)
		}
		reqs = append(reqs, w.req(local, localOff, remote, wcb))
	}
	if err := ch.MemcpyBatch(reqs); err != nil {
		for _, r := range reqs {
			r.CB(err)
		}
	}
}
