// Package netsim prices the paper's experiments on a virtual cluster: a
// deterministic resource-timeline simulation of tensor transfers over the
// four communication mechanisms, combined with the GPU compute-time
// model. The emulated RDMA fabric executes the real protocols; this package
// supplies the *time* dimension the paper's 100 Gbps InfiniBand testbed
// provided, calibrated (params.go) so the relative shapes of Figures 8, 9,
// 11, 12 and Tables 2, 3 hold.
package netsim

// Time is simulation time in microseconds.
type Time = float64

// Resource is a FIFO-serialized facility (a NIC direction, a QP lane, a
// copy engine) modeled as a busy-until timeline.
type Resource struct {
	free Time
}

// Use occupies the resource for dur starting no earlier than ready,
// returning the interval.
func (r *Resource) Use(ready Time, dur Time) (start, end Time) {
	start = ready
	if r.free > start {
		start = r.free
	}
	end = start + dur
	r.free = end
	return start, end
}

// Free returns when the resource next becomes idle.
func (r *Resource) Free() Time { return r.free }

// Pool is a set of identical resources; Use picks the earliest-free one
// (e.g. the QP lanes between a server pair).
type Pool struct {
	rs []Resource
}

// NewPool creates a pool of n resources.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{rs: make([]Resource, n)}
}

// Use occupies the earliest-available resource in the pool.
func (p *Pool) Use(ready Time, dur Time) (start, end Time) {
	best := 0
	for i := 1; i < len(p.rs); i++ {
		if p.rs[i].free < p.rs[best].free {
			best = i
		}
	}
	return p.rs[best].Use(ready, dur)
}
