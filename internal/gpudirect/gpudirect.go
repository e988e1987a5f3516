// Package gpudirect emulates GPUDirect RDMA (§3.5): tensors whose payload
// lives in GPU device memory transferred without bouncing through host
// memory. The paper's design point is that polling belongs on the CPU —
// launching GPU kernels to poll a flag is too expensive — so GPU transfers
// always use the dynamic-allocation protocol with the metadata block (and
// its flag) in *host* memory while the payload travels directly between
// device memories with a one-sided RDMA read.
//
// Without GPUDirect the same transfer pays two extra copies: device→host at
// the sender and host→device at the receiver. Both paths are implemented so
// Table 3's comparison has a functional analogue; the copies are real
// memcpys through a host bounce buffer and are counted in metrics.
package gpudirect

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/metrics"
	"repro/internal/rdma"
)

// ErrGPU wraps GPU-memory failures.
var ErrGPU = errors.New("gpudirect: error")

// Memory emulates one GPU's device memory, registered with the NIC when
// GPUDirect is enabled.
type Memory struct {
	dev       *rdma.Device
	mr        *rdma.MemRegion
	arena     *alloc.Arena
	gpuDirect bool
	host      *rdma.MemRegion // bounce buffer when gpuDirect is off
	metrics   *metrics.Comm
}

// NewMemory allocates an emulated GPU memory of the given size. With
// gpuDirect enabled the device memory itself is registered to the NIC
// ("allocate a GPU memory space in a mapped pinned mode ... and register to
// the RDMA NIC"); otherwise transfers stage through a host bounce region.
func NewMemory(dev *rdma.Device, size int, gpuDirect bool, m *metrics.Comm) (*Memory, error) {
	mr, err := dev.AllocateMemRegion(size)
	if err != nil {
		return nil, err
	}
	g := &Memory{
		dev: dev, mr: mr,
		arena:     alloc.NewArena(mr.Bytes()),
		gpuDirect: gpuDirect,
		metrics:   m,
	}
	if !gpuDirect {
		if g.host, err = dev.AllocateMemRegion(size); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Alloc carves a device-memory buffer.
func (g *Memory) Alloc(size int) (*alloc.Buffer, error) {
	return g.arena.Allocate(size)
}

// Free releases a device-memory buffer.
func (g *Memory) Free(b *alloc.Buffer) error { return g.arena.Free(b) }

// GPUDirect reports whether device memory is NIC-registered.
func (g *Memory) GPUDirect() bool { return g.gpuDirect }

// Sender pushes GPU-resident tensors over one edge using the dynamic
// protocol with host-resident metadata.
type Sender struct {
	gpu  *Memory
	dyn  *rdma.DynSender
	meta *rdma.MemRegion
}

// NewSender builds the sending end; metaSlot addresses the receiver's
// host-memory metadata block.
func NewSender(gpu *Memory, ch *rdma.Channel, metaSlot rdma.DynSlotDesc) (*Sender, error) {
	meta, err := gpu.dev.AllocateMemRegion(rdma.DynMetaSize)
	if err != nil {
		return nil, err
	}
	dyn, err := rdma.NewDynSender(ch, meta, 0, metaSlot)
	if err != nil {
		return nil, err
	}
	return &Sender{gpu: gpu, dyn: dyn, meta: meta}, nil
}

// ScratchDesc exposes the sender scratch block for the receiver's acks.
func (s *Sender) ScratchDesc() rdma.DynSlotDesc { return s.dyn.ScratchDesc() }

// Send transfers buf (device memory). With GPUDirect the payload region is
// the GPU memory itself; without it the payload is first copied into the
// host bounce buffer (the copy Table 3 eliminates).
func (s *Sender) Send(buf *alloc.Buffer, dims []uint64, cb func(error)) error {
	payloadMR := s.gpu.mr
	payloadOff := buf.Off
	if !s.gpu.gpuDirect {
		if len(buf.Data) > s.gpu.host.Size() {
			return fmt.Errorf("%w: payload %d exceeds host bounce buffer %d",
				ErrGPU, len(buf.Data), s.gpu.host.Size())
		}
		copy(s.gpu.host.Bytes(), buf.Data) // device -> host staging
		if s.gpu.metrics != nil {
			s.gpu.metrics.AddCopy(len(buf.Data))
		}
		payloadMR, payloadOff = s.gpu.host, 0
	} else if s.gpu.metrics != nil {
		s.gpu.metrics.AddZeroCopy()
	}
	if s.gpu.metrics != nil {
		s.gpu.metrics.AddSent(len(buf.Data) + rdma.DynMetaSize)
	}
	return s.dyn.Send(payloadMR, payloadOff, len(buf.Data), 1, dims, cb)
}

// PollReusable reports whether the previous send was acked.
func (s *Sender) PollReusable() bool { return s.dyn.PollReusable() }

// Receiver pulls GPU-destined tensors: the CPU polls host-memory metadata,
// then issues the one-sided read into device memory (GPUDirect) or into a
// host bounce region followed by a host→device copy.
type Receiver struct {
	gpu  *Memory
	recv *rdma.DynReceiver
	meta *rdma.MemRegion
}

// NewReceiver allocates the host-memory metadata slot for one edge whose
// sender is reached via ch.
func NewReceiver(gpu *Memory, ch *rdma.Channel) (*Receiver, error) {
	meta, err := gpu.dev.AllocateMemRegion(rdma.DynMetaSize)
	if err != nil {
		return nil, err
	}
	recv, err := rdma.NewDynReceiver(ch, meta, 0)
	if err != nil {
		return nil, err
	}
	return &Receiver{gpu: gpu, recv: recv, meta: meta}, nil
}

// Desc exposes the metadata slot address for the sender.
func (r *Receiver) Desc() rdma.DynSlotDesc { return r.recv.Desc() }

// Poll checks the host-resident metadata flag (CPU-side polling, §3.5).
func (r *Receiver) Poll() (rdma.DynMeta, bool) { return r.recv.Poll() }

// Fetch pulls the payload into a fresh device buffer and returns it via
// the callback. Without GPUDirect the read lands in the host bounce region
// and is copied into device memory. The read and the reuse ack are retried
// within the default transfer budget (DynReceiver.FetchRetryAsync).
func (r *Receiver) Fetch(meta rdma.DynMeta, senderScratch rdma.DynSlotDesc,
	cb func(*alloc.Buffer, error)) error {
	buf, err := r.gpu.Alloc(int(meta.PayloadSize))
	if err != nil {
		return err
	}
	dst, off := r.gpu.mr, buf.Off
	if !r.gpu.gpuDirect {
		if int(meta.PayloadSize) > r.gpu.host.Size() {
			return fmt.Errorf("%w: payload %d exceeds host bounce buffer %d",
				ErrGPU, meta.PayloadSize, r.gpu.host.Size())
		}
		dst, off = r.gpu.host, 0
	}
	r.recv.FetchRetryAsync(meta, senderScratch, dst, off, rdma.TransferOpts{}, func(err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		if !r.gpu.gpuDirect {
			copy(buf.Data, r.gpu.host.Bytes()[:meta.PayloadSize]) // host -> device
			if r.gpu.metrics != nil {
				r.gpu.metrics.AddCopy(int(meta.PayloadSize))
			}
		}
		if r.gpu.metrics != nil {
			r.gpu.metrics.AddRecv(int(meta.PayloadSize))
		}
		cb(buf, nil)
	})
	return nil
}
