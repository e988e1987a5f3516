package rdma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Common error values returned by the device library.
var (
	ErrClosed      = errors.New("rdma: device closed")
	ErrNoSuchPeer  = errors.New("rdma: no such peer endpoint")
	ErrBounds      = errors.New("rdma: memory access out of region bounds")
	ErrUnreachable = errors.New("rdma: peer unreachable (partitioned)")
	ErrBadConfig   = errors.New("rdma: invalid device configuration")
	// ErrInjected marks a failure introduced by a fault-injection hook.
	// Injected failures are transient by construction and classified
	// retryable (see Retryable).
	ErrInjected = errors.New("rdma: injected fault")
)

// CompletionFault instructs the emulator to misbehave when reporting one
// work completion: hold the completion back for Delay, and/or post it
// twice. Both happen on real fabrics (slow CQ moderation, retransmit after
// a lost ack) and both must be tolerated by consumers.
type CompletionFault struct {
	Delay     time.Duration
	Duplicate bool
}

// Hooks allows tests and simulators to observe, delay, or corrupt fabric
// activity. All hooks may be invoked concurrently from many QP goroutines
// and must be safe for concurrent use. Installing hooks mid-flight is safe:
// each work request snapshots the hook set once.
type Hooks struct {
	// TransferDelay, if non-nil, returns an artificial latency applied
	// before a one-sided transfer of the given size executes.
	TransferDelay func(op Op, size int) time.Duration
	// PathDelay, if non-nil, returns an artificial latency for a
	// one-sided transfer between two named endpoints. Unlike
	// TransferDelay it sees the path, so a model can serialize transfers
	// sharing a NIC (e.g. a parameter server's incast) while letting
	// disjoint paths proceed concurrently. Applied in addition to
	// TransferDelay.
	PathDelay func(op Op, size int, src, dst string) time.Duration
	// OnTransfer, if non-nil, is invoked after every completed one-sided
	// transfer (for counters).
	OnTransfer func(op Op, size int)
	// TransferFault, if non-nil, is consulted before a one-sided transfer
	// touches memory. A non-nil return fails the work request with that
	// error and leaves both regions untouched (a dropped/NAKed WR). Wrap
	// ErrInjected (or ErrUnreachable) so consumers classify it transient.
	TransferFault func(op Op, size int) error
	// WriteReorder, if non-nil and returning true for a write, makes the
	// transfer's final word visible before the rest of the payload —
	// violating the in-order DMA guarantee flag-based protocols depend on.
	WriteReorder func(op Op, size int) bool
	// CompletionFault, if non-nil, can delay or duplicate the completion
	// of a one-sided transfer.
	CompletionFault func(op Op, size int) CompletionFault
	// MessageFault, if non-nil, is consulted before a two-sided message is
	// delivered; a non-nil return fails the send without delivery.
	MessageFault func(size int) error
	// Lossy switches the fabric's loss model for semantically tagged chunk
	// writes (the lossy selective-retransmit protocol, retransmit.go): with
	// Lossy set, a ChunkDrop hit loses the chunk silently — the sender's
	// completion still succeeds, the memory stays untouched — the way an
	// unreliable datagram fabric drops packets without NAKing. Untagged
	// writes (all the lossless protocols, and the lossy protocol's control
	// words) keep reliable error-based semantics regardless.
	Lossy bool
	// ChunkDrop, if non-nil and Lossy is set, decides per tagged chunk
	// write whether the fabric loses it.
	ChunkDrop func(tag ChunkTag, size int) bool
	// OnChunkStale, if non-nil, observes tagged chunks discarded by the
	// receiver-side epoch guard (a retransmit landing after its iteration
	// was superseded or aborted).
	OnChunkStale func(tag ChunkTag)
}

// Fabric is the emulated RDMA network: a registry of devices keyed by
// endpoint ("host:port") plus optional fault/latency injection. One Fabric
// models one isolated cluster; tests create as many as they need.
type Fabric struct {
	mu         sync.RWMutex
	devices    map[string]*Device
	partitions map[[2]string]bool
	hooks      Hooks

	// regionSeq issues memory-region ids fabric-wide, so a restarted
	// endpoint never reuses an id a dead incarnation handed out (stale work
	// requests then fail region lookup instead of hitting fresh memory).
	regionSeq atomic.Uint32
}

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		devices:    make(map[string]*Device),
		partitions: make(map[[2]string]bool),
	}
}

// SetHooks installs fault/latency hooks. It is safe to call while devices
// are transferring: in-flight work requests keep the snapshot they took.
func (f *Fabric) SetHooks(h Hooks) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hooks = h
}

// Partition severs connectivity between two endpoints (both directions).
func (f *Fabric) Partition(a, b string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitions[partitionKey(a, b)] = true
}

// Heal restores connectivity between two endpoints.
func (f *Fabric) Heal(a, b string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.partitions, partitionKey(a, b))
}

func partitionKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func (f *Fabric) register(d *Device) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.devices[d.endpoint]; ok {
		return fmt.Errorf("rdma: endpoint %q already registered: %w", d.endpoint, ErrBadConfig)
	}
	f.devices[d.endpoint] = d
	return nil
}

func (f *Fabric) unregister(endpoint string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.devices, endpoint)
}

// lookup resolves a peer endpoint, honouring partitions from the caller.
func (f *Fabric) lookup(from, to string) (*Device, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.partitions[partitionKey(from, to)] {
		return nil, fmt.Errorf("rdma: %s -> %s: %w", from, to, ErrUnreachable)
	}
	d, ok := f.devices[to]
	if !ok {
		return nil, fmt.Errorf("rdma: %s -> %s: %w", from, to, ErrNoSuchPeer)
	}
	return d, nil
}

func (f *Fabric) nextRegionID() uint32 {
	return f.regionSeq.Add(1)
}

func (f *Fabric) hooksSnapshot() Hooks {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.hooks
}
