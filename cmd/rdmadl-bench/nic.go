package main

import (
	"sync"
	"time"

	"repro/internal/rdma"
)

// The wire model of train_ring_wire: every one-sided transfer occupies its
// source NIC's tx direction and its destination NIC's rx direction for
// nicPostCost + size*nicNsPerByte, FIFO per direction (a busy-until
// timeline). Transfers sharing a NIC direction serialize the way a shared
// link drains; disjoint ring edges overlap.
//
// 16 ns/B (62.5 MB/s per direction) makes one ring segment (~295 KB) cost
// ~4.7 ms of sleep — far above timer granularity, so the modelled time is
// what is slept — and makes wire ~60% of the step, leaving room for overlap
// to matter without the run collapsing to a handful of steps.
const (
	nicNsPerByte = 16
	nicPostCost  = 2 * time.Microsecond
	// nicGBps is the same bandwidth in the unit netsim.Params.WireGBps uses.
	nicGBps = 1.0 / nicNsPerByte
)

type nicTimeline struct {
	now  func() time.Time
	mu   sync.Mutex
	busy map[string]time.Time
}

func newNICTimeline(now func() time.Time) *nicTimeline {
	return &nicTimeline{now: now, busy: make(map[string]time.Time)}
}

// delay is an rdma.Hooks.PathDelay: how long this transfer must wait from
// now until it has drained through both NIC directions.
func (n *nicTimeline) delay(_ rdma.Op, size int, src, dst string) time.Duration {
	wire := nicPostCost + time.Duration(size)*nicNsPerByte*time.Nanosecond
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	start := now
	if t := n.busy[src+"/tx"]; t.After(start) {
		start = t
	}
	if t := n.busy[dst+"/rx"]; t.After(start) {
		start = t
	}
	end := start.Add(wire)
	n.busy[src+"/tx"] = end
	n.busy[dst+"/rx"] = end
	return end.Sub(now)
}
