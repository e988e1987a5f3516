package rdma

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Atomic access to 8-byte-aligned words inside registered region storage.
//
// On real hardware the NIC's DMA engine commits the tail flag of a transfer
// after the payload, and the CPU's cache coherence makes the ordering
// visible to a polling thread. In the emulator the "NIC" is a goroutine, so
// the same ordering must be expressed through the Go memory model: the
// payload is written with plain stores and the flag word with an atomic
// (release) store; the poller reads the flag with an atomic (acquire) load
// and only then touches the payload. This file is the only use of unsafe in
// the package and every call validates alignment and bounds first.

// atomicStore64 stores v at buf[off:off+8] with release semantics.
// off must be 8-byte aligned relative to the slice start, and the backing
// array must itself be 8-byte aligned (region storage is allocated from
// []uint64, see newAlignedBytes).
func atomicStore64(buf []byte, off int, v uint64) {
	p := wordPtr(buf, off)
	atomic.StoreUint64(p, v)
}

// atomicLoad64 loads the word at buf[off:off+8] with acquire semantics.
func atomicLoad64(buf []byte, off int) uint64 {
	p := wordPtr(buf, off)
	return atomic.LoadUint64(p)
}

func wordPtr(buf []byte, off int) *uint64 {
	if off < 0 || off+8 > len(buf) {
		panic(fmt.Sprintf("rdma: atomic word at %d out of bounds [0,%d)", off, len(buf)))
	}
	p := unsafe.Pointer(&buf[off])
	if uintptr(p)%8 != 0 {
		panic(fmt.Sprintf("rdma: atomic word at %d is misaligned", off))
	}
	return (*uint64)(p)
}

// newAlignedBytes allocates an 8-byte-aligned byte slice of the given size
// (rounded up to a multiple of 8) by backing it with a []uint64.
func newAlignedBytes(size int) []byte {
	words := (size + 7) / 8
	backing := make([]uint64, words)
	if words == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), words*8)[:size]
}
