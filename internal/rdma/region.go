package rdma

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// FlagWordSize is the size of the completion flag appended to a transfer
// target (§3.2). The paper uses a single flag byte; the emulator widens it
// to one 8-byte word so the flag can be committed with an atomic store (the
// software analogue of the NIC's ordered DMA — see atomicword.go). Regions
// intended for flagged transfers should reserve FlagWordSize bytes at the
// tail of each slot.
const FlagWordSize = 8

// FlagSet is the value the sender writes into the flag word.
const FlagSet uint64 = 1

// MemRegion is a block of RDMA-registered memory on a local device.
// Addresses within a region are byte offsets from its start.
type MemRegion struct {
	dev  *Device
	id   uint32
	data []byte

	// tagMu serializes the lossy protocol's guard updates against
	// tagged-chunk placement (retransmit.go): a chunk's guard check and its
	// placement must be atomic with respect to retiring its epoch, or a
	// stale retransmit could pass the check and then land in memory a
	// newer iteration already owns.
	tagMu sync.Mutex
}

// ID returns the region's registration id (the emulator's rkey).
func (m *MemRegion) ID() uint32 { return m.id }

// Size returns the registered size in bytes.
func (m *MemRegion) Size() int { return len(m.data) }

// Bytes returns the region's storage. Slicing it is how tensors are placed
// in registered memory without copies.
func (m *MemRegion) Bytes() []byte { return m.data }

// Slice returns the sub-range [off, off+size) of the region's storage.
func (m *MemRegion) Slice(off, size int) ([]byte, error) {
	if off < 0 || size < 0 || off+size > len(m.data) {
		return nil, fmt.Errorf("rdma: slice [%d,%d+%d) of %d-byte region: %w",
			off, off, size, len(m.data), ErrBounds)
	}
	return m.data[off : off+size], nil
}

// Descriptor returns the remotely shareable handle for this region.
// Distributing descriptors to peers (over the vanilla RPC) is the §3.1
// address-distribution step.
func (m *MemRegion) Descriptor() RemoteRegion {
	return RemoteRegion{Endpoint: m.dev.endpoint, RegionID: m.id, Size: uint64(len(m.data))}
}

// PollFlag checks the flag word at the given offset with acquire semantics
// and reports whether it equals FlagSet. Once true, all payload bytes the
// sender wrote before the flag are visible.
func (m *MemRegion) PollFlag(off int) bool {
	return atomicLoad64(m.data, off) == FlagSet
}

// ClearFlag resets the flag word at the given offset for reuse.
func (m *MemRegion) ClearFlag(off int) {
	atomicStore64(m.data, off, 0)
}

// SetFlagLocal sets the flag word locally (used by loopback paths in tests).
func (m *MemRegion) SetFlagLocal(off int) {
	atomicStore64(m.data, off, FlagSet)
}

// LoadWord atomically reads the 8-byte word at the aligned offset with
// acquire semantics. Higher-level protocols (e.g. the serving plane's
// version and release-ack words) poll remotely written words through it.
func (m *MemRegion) LoadWord(off int) uint64 {
	return atomicLoad64(m.data, off)
}

// StoreWord atomically writes the 8-byte word at the aligned offset with
// release semantics.
func (m *MemRegion) StoreWord(off int, v uint64) {
	atomicStore64(m.data, off, v)
}

// RemoteRegion identifies a registered memory region on a (possibly remote)
// device: it is the pair the paper's Memcpy takes as "remote_region".
type RemoteRegion struct {
	Endpoint string
	RegionID uint32
	Size     uint64
}

// remoteRegionWireSize bounds the encoded size (2+len(ep)+4+8).
func (r RemoteRegion) wireSize() int { return 2 + len(r.Endpoint) + 4 + 8 }

// Marshal encodes the descriptor for address distribution.
func (r RemoteRegion) Marshal() []byte {
	buf := make([]byte, r.wireSize())
	binary.LittleEndian.PutUint16(buf, uint16(len(r.Endpoint)))
	copy(buf[2:], r.Endpoint)
	off := 2 + len(r.Endpoint)
	binary.LittleEndian.PutUint32(buf[off:], r.RegionID)
	binary.LittleEndian.PutUint64(buf[off+4:], r.Size)
	return buf
}

// UnmarshalRemoteRegion decodes a descriptor produced by Marshal.
func UnmarshalRemoteRegion(buf []byte) (RemoteRegion, error) {
	var r RemoteRegion
	if len(buf) < 2 {
		return r, fmt.Errorf("rdma: short region descriptor (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if len(buf) < 2+n+12 {
		return r, fmt.Errorf("rdma: truncated region descriptor (%d bytes, endpoint %d)", len(buf), n)
	}
	r.Endpoint = string(buf[2 : 2+n])
	r.RegionID = binary.LittleEndian.Uint32(buf[2+n:])
	r.Size = binary.LittleEndian.Uint64(buf[2+n+4:])
	return r, nil
}

// storeGuarded lands one inline control word of the lossy protocol,
// serialized against placeChunk by tagMu: once the guard is raised past
// epoch e, no chunk of epoch e can land.
func (m *MemRegion) storeGuarded(off int, v uint64) error {
	if !m.wordOK(off) {
		return fmt.Errorf("rdma: control word at %d of %d-byte region: %w", off, len(m.data), ErrBounds)
	}
	m.tagMu.Lock()
	atomicStore64(m.data, off, v)
	m.tagMu.Unlock()
	return nil
}

// placeChunk lands one tagged chunk iff its epoch is not older than the
// slot's guard, raising the guard to it; a stale chunk is discarded whole
// (returns false). So once a chunk of epoch e+1 landed, or the receiver
// retired epoch e, no epoch-e chunk lands again; one landing earlier is
// overwritten by its epoch-(e+1) successor before e+1 completes. Guard
// check, payload stores and arrival stamp happen under tagMu. Payload
// words move with atomic stores: pollers may read while chunks land.
func (m *MemRegion) placeChunk(t *writeTag, dstOff int, src []byte) (bool, error) {
	arrOff := t.arrivalOff + 8*int(t.tag.Seq)
	if int(t.tag.Seq) >= lossyArrivalWords || !m.wordOK(t.guardOff) || !m.wordOK(arrOff) ||
		dstOff < 0 || dstOff%8 != 0 || len(src)%8 != 0 || dstOff+len(src) > len(m.data) {
		return false, fmt.Errorf("rdma: chunk %d [%d,+%d) (guard %d, arrival %d) of %d-byte region: %w",
			t.tag.Seq, dstOff, len(src), t.guardOff, arrOff, len(m.data), ErrBounds)
	}
	m.tagMu.Lock()
	defer m.tagMu.Unlock()
	if atomicLoad64(m.data, t.guardOff) > t.tag.Epoch {
		return false, nil
	}
	atomicStore64(m.data, t.guardOff, t.tag.Epoch)
	for o := 0; o+8 <= len(src); o += 8 {
		atomicStore64(m.data, dstOff+o, atomicLoad64(src, o))
	}
	atomicStore64(m.data, arrOff, t.tag.Epoch)
	return true, nil
}

// wordOK reports whether off addresses an aligned word inside the region.
func (m *MemRegion) wordOK(off int) bool { return off >= 0 && off%8 == 0 && off+8 <= len(m.data) }
