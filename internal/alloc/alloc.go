// Package alloc provides the memory allocators the runtime places tensors
// with. The paper's graph analyzer preallocates one large RDMA-registered
// region per device and carves tensors out of it with an allocator (§3.4:
// registering each tensor buffer on demand is slow and bounded by hardware
// limits, so "preallocate a large enough memory buffer to register once").
//
// Two allocators are provided: Arena, a best-fit free-list allocator with
// coalescing over a caller-supplied byte block (typically a MemRegion's
// storage), and Heap, a plain Go-heap allocator used for tensors that never
// cross machines. Both hand out 8-byte-aligned buffers so tensor element
// views and RDMA flag words stay aligned.
package alloc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"unsafe"
)

// Common allocator errors.
var (
	ErrOutOfMemory = errors.New("alloc: out of memory")
	ErrBadFree     = errors.New("alloc: free of unknown or already-freed buffer")
	ErrBadSize     = errors.New("alloc: invalid size")
)

// Buffer is an allocation: a byte slice plus enough provenance to free it
// and to locate it inside a registered region for RDMA transfers.
type Buffer struct {
	// Data is the allocated storage, aligned to 8 bytes.
	Data []byte
	// Off is the byte offset of Data inside the arena's block; 0 for heap
	// buffers.
	Off int
	// Arena is the owning arena, or nil for heap buffers. Arena-backed
	// buffers are RDMA-accessible when the arena wraps a registered region.
	Arena *Arena
}

// InRegisteredMemory reports whether the buffer was carved from an arena
// (and is therefore remotely accessible when the arena wraps a MemRegion).
func (b *Buffer) InRegisteredMemory() bool { return b.Arena != nil }

// Free returns the buffer to its arena; heap buffers are garbage-collected
// and Free is a no-op for them.
func (b *Buffer) Free() error {
	if b.Arena == nil {
		return nil
	}
	return b.Arena.Free(b)
}

// Allocator is the interface the execution runtime allocates tensors with.
type Allocator interface {
	// Allocate returns a zeroed buffer of at least size bytes.
	Allocate(size int) (*Buffer, error)
}

// Heap allocates from the Go heap with 8-byte alignment.
type Heap struct{}

// Allocate implements Allocator.
func (Heap) Allocate(size int) (*Buffer, error) {
	if size < 0 {
		return nil, fmt.Errorf("alloc: heap allocate %d: %w", size, ErrBadSize)
	}
	return &Buffer{Data: alignedBytes(size)}, nil
}

// alignedBytes allocates an 8-byte-aligned slice by backing it with
// []uint64 (the Go allocator aligns word slices naturally). The single
// unsafe use in this package.
func alignedBytes(size int) []byte {
	words := (size + 7) / 8
	if words == 0 {
		return nil
	}
	backing := make([]uint64, words)
	return unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), words*8)[:size]
}

// Stats reports an arena's occupancy.
type Stats struct {
	Total      int // block size in bytes
	InUse      int // bytes currently allocated (after rounding)
	Peak       int // high-water mark of InUse
	Allocs     int // successful allocations
	Frees      int // successful frees
	FreeBlocks int // current free-list length (fragmentation signal)
}

// Arena is a best-fit free-list allocator with coalescing over one block of
// memory. It is safe for concurrent use.
type Arena struct {
	mu    sync.Mutex
	block []byte
	free  []span // sorted by offset, non-adjacent (always coalesced)
	live  map[int]int
	stats Stats
}

type span struct{ off, size int }

// NewArena builds an arena over the caller's block. The block is typically
// a registered MemRegion's storage; the arena never reallocates it.
func NewArena(block []byte) *Arena {
	a := &Arena{block: block, live: make(map[int]int)}
	if len(block) > 0 {
		a.free = []span{{0, len(block)}}
	}
	a.stats.Total = len(block)
	return a
}

// Allocate implements Allocator with a best-fit search.
func (a *Arena) Allocate(size int) (*Buffer, error) {
	if size < 0 {
		return nil, fmt.Errorf("alloc: arena allocate %d: %w", size, ErrBadSize)
	}
	rounded := (size + 7) / 8 * 8
	if rounded == 0 {
		rounded = 8
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	best := -1
	for i, s := range a.free {
		if s.size >= rounded && (best < 0 || s.size < a.free[best].size) {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("alloc: arena allocate %d of %d free: %w",
			rounded, a.freeBytesLocked(), ErrOutOfMemory)
	}
	s := a.free[best]
	off := s.off
	if s.size == rounded {
		a.free = append(a.free[:best], a.free[best+1:]...)
	} else {
		a.free[best] = span{off: s.off + rounded, size: s.size - rounded}
	}
	a.live[off] = rounded
	a.stats.InUse += rounded
	a.stats.Allocs++
	if a.stats.InUse > a.stats.Peak {
		a.stats.Peak = a.stats.InUse
	}
	data := a.block[off : off+size : off+rounded]
	for i := range data {
		data[i] = 0
	}
	return &Buffer{Data: data, Off: off, Arena: a}, nil
}

// Free returns a buffer's span to the free list, coalescing with neighbors.
func (a *Arena) Free(b *Buffer) error {
	if b == nil || b.Arena != a {
		return fmt.Errorf("alloc: free of foreign buffer: %w", ErrBadFree)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	size, ok := a.live[b.Off]
	if !ok {
		return fmt.Errorf("alloc: free at offset %d: %w", b.Off, ErrBadFree)
	}
	delete(a.live, b.Off)
	a.stats.InUse -= size
	a.stats.Frees++

	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off > b.Off })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{off: b.Off, size: size}
	// Coalesce with successor then predecessor.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// Stats returns a snapshot of the arena's counters.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.FreeBlocks = len(a.free)
	return st
}

// FreeBytes returns the bytes currently available.
func (a *Arena) FreeBytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freeBytesLocked()
}

func (a *Arena) freeBytesLocked() int {
	n := 0
	for _, s := range a.free {
		n += s.size
	}
	return n
}
