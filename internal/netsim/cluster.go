package netsim

import (
	"sort"

	"repro/internal/distributed"
	"repro/internal/models"
)

// ClusterSim prices synchronous data-parallel parameter-server iterations
// (the paper's default deployment: every machine runs one worker process
// and one parameter-server process, variables spread round-robin).
//
// Each tensor transfer passes three facilities:
//
//   - the source machine's communication CPU pool (serialization, bounce
//     and staging copies; the device mechanisms have nearly nothing here —
//     that is the point of the paper);
//   - the NICs' tx/rx directions at line rate;
//   - the destination machine's CPU pool (deserialization, copies out).
//
// Pull (weights) and push (gradients) travel opposite NIC directions and
// partially overlap with compute the way the data-flow scheduler overlaps
// them in TensorFlow; SerialFrac captures the non-overlappable remainder
// (first-layer weights, last-layer gradients).
type ClusterSim struct {
	// Servers is the machine count; worker i and PS shard i are colocated.
	Servers int
	// CPUThreads is the per-machine communication thread count (QP/CQ
	// pollers for the device mechanisms, gRPC completion threads).
	CPUThreads int
	// Params is the mechanism cost model.
	Params Params
	// LoopbackGBps is the wire bandwidth for same-machine transfers.
	LoopbackGBps float64
	// ApplyGBps models the PS-side gradient apply bandwidth.
	ApplyGBps float64
	// SerialFrac is the fraction of communication that cannot hide under
	// compute (0 = perfect overlap, 1 = fully sequential phases).
	SerialFrac float64
	// Placement selects how variables map to PS shards.
	Placement Placement
}

// Placement is the variable-to-shard assignment policy.
type Placement int

const (
	// RoundRobin is the paper's policy: tensor v lives on shard v mod N.
	// Large tensors (VGG's 392 MB fc6) make their shard's NIC a hotspot.
	RoundRobin Placement = iota
	// Balanced assigns tensors largest-first to the least-loaded shard,
	// the classic mitigation for the hotspot. It cannot help when a single
	// tensor dominates (VGG's fc6): the broadcast still leaves one NIC.
	Balanced
	// Partitioned splits every tensor larger than its fair share into one
	// chunk per shard (TensorFlow's variable partitioner), removing the
	// single-NIC broadcast bottleneck entirely.
	Partitioned
)

// placedTensor is one transferable unit after placement: a tensor or chunk
// and the PS shard holding it.
type placedTensor struct {
	size  int64
	shard int
}

// placeTensors maps the model's tensors onto shards under the configured
// policy, possibly splitting them (Partitioned).
func (c *ClusterSim) placeTensors(sizes []int64) []placedTensor {
	n := c.Servers
	if c.Placement == Partitioned {
		var out []placedTensor
		next := 0
		for _, size := range sizes {
			chunk := size / int64(n)
			if chunk < 256<<10 { // below ~256 KB splitting only adds overhead
				out = append(out, placedTensor{size: size, shard: next % n})
				next++
				continue
			}
			rem := size
			for s := 0; s < n; s++ {
				part := chunk
				if s == n-1 {
					part = rem
				}
				out = append(out, placedTensor{size: part, shard: (next + s) % n})
				rem -= chunk
			}
			next++
		}
		return out
	}
	shards := c.shardOf(sizes)
	out := make([]placedTensor, len(sizes))
	for i, size := range sizes {
		out[i] = placedTensor{size: size, shard: shards[i]}
	}
	return out
}

// shardOf computes each tensor's shard under the configured policy.
func (c *ClusterSim) shardOf(sizes []int64) []int {
	n := c.Servers
	out := make([]int, len(sizes))
	switch c.Placement {
	case Balanced:
		type item struct {
			idx  int
			size int64
		}
		items := make([]item, len(sizes))
		for i, s := range sizes {
			items[i] = item{i, s}
		}
		sort.Slice(items, func(a, b int) bool {
			if items[a].size != items[b].size {
				return items[a].size > items[b].size
			}
			return items[a].idx < items[b].idx
		})
		load := make([]int64, n)
		for _, it := range items {
			best := 0
			for s := 1; s < n; s++ {
				if load[s] < load[best] {
					best = s
				}
			}
			out[it.idx] = best
			load[best] += it.size
		}
	default:
		for i := range sizes {
			out[i] = i % n
		}
	}
	return out
}

// NewClusterSim builds a simulator with the paper's defaults (4 QPs and 4
// CQ pollers for the device mechanisms; gRPC's limited completion-queue
// concurrency for the RPC ones).
func NewClusterSim(servers int, kind distributed.Kind, gpuDirect bool) *ClusterSim {
	threads := 4
	if kind.UsesRPC() {
		threads = 3
	}
	return &ClusterSim{
		Servers:      servers,
		CPUThreads:   threads,
		Params:       ParamsFor(kind, gpuDirect),
		LoopbackGBps: 38,
		ApplyGBps:    60,
		SerialFrac:   0.6,
	}
}

type transfer struct {
	src, dst int
	size     int64
}

// sendStageUS/recvStageUS are the cluster-model software stage times; unlike
// the micro path they always charge the size-proportional stages (fragment
// pipelining inside one transfer is represented by the stages running on
// CPU threads concurrently with other transfers' wire time).
func (c *ClusterSim) sendStageUS(size int64) float64 {
	p := c.Params
	t := p.FixedUS
	f := p.factor(size)
	for _, bw := range p.SendStagesGBps {
		t += us(size, bw) * f
	}
	if p.HostStageGBps > 0 {
		t += us(size, p.HostStageGBps)
	}
	return t
}

func (c *ClusterSim) recvStageUS(size int64) float64 {
	p := c.Params
	t := 0.0
	f := p.factor(size)
	for _, bw := range p.RecvStagesGBps {
		t += us(size, bw) * f
	}
	if p.HostStageGBps > 0 {
		t += us(size, p.HostStageGBps)
	}
	return t
}

func (c *ClusterSim) wireUS(size int64, loopback bool) float64 {
	p := c.Params
	bw := p.WireGBps
	if loopback && c.LoopbackGBps > 0 {
		bw = c.LoopbackGBps
	}
	t := us(size, bw)
	if p.FragBytes > 0 {
		frags := (size + int64(p.FragBytes) - 1) / int64(p.FragBytes)
		if frags < 1 {
			frags = 1
		}
		t += float64(frags) * p.PerFragUS
	}
	return t
}

// phaseTime runs one communication phase (all transfers released at t=0)
// through fresh resource state and returns the completion time of the last
// delivery at each machine. Within one transfer the software stages and the
// wire pipeline at fragment granularity (cut-through): each facility is
// occupied for its own duration over overlapping windows, and the transfer
// completes when the slowest facility finishes.
func (c *ClusterSim) phaseTime(transfers []transfer) []Time {
	n := c.Servers
	cpus := make([]*Pool, n)
	for i := range cpus {
		cpus[i] = NewPool(c.CPUThreads)
	}
	nicTx := make([]Resource, n)
	nicRx := make([]Resource, n)
	done := make([]Time, n)
	for _, tr := range transfers {
		sendDur := c.sendStageUS(tr.size)
		recvDur := c.recvStageUS(tr.size)
		wire := c.wireUS(tr.size, tr.src == tr.dst)

		sStart, sEnd := cpus[tr.src].Use(0, sendDur)
		wireReady := sStart // cut-through: the wire streams as staging runs
		if c.Params.StoreAndForward {
			// The bounce-buffer copy must finish before the write posts;
			// only the GPU staging part still streams.
			wireReady = sEnd
			if c.Params.HostStageGBps > 0 {
				wireReady -= us(tr.size, c.Params.HostStageGBps)
			}
		}
		var wireStart, wireEnd Time
		if tr.src == tr.dst {
			wireStart, wireEnd = wireReady, wireReady+wire
		} else {
			ready := wireReady
			if nicRx[tr.dst].Free() > ready {
				ready = nicRx[tr.dst].Free()
			}
			wireStart, wireEnd = nicTx[tr.src].Use(ready, wire)
			nicRx[tr.dst].Use(wireStart, wire)
		}
		arrived := wireEnd
		if sEnd > arrived {
			arrived = sEnd // staging slower than the wire: it governs
		}
		arrived += c.Params.WireLatUS
		// Receive-side staging also streams while data lands.
		_, rEnd := cpus[tr.dst].Use(wireStart+c.Params.WireLatUS, recvDur)
		end := arrived
		if rEnd > end {
			end = rEnd
		}
		if end > done[tr.dst] {
			done[tr.dst] = end
		}
	}
	return done
}

func maxOf(ts []Time) Time {
	m := Time(0)
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// IterationUS returns the simulated wall time of one synchronous training
// iteration of the given benchmark at the given per-worker batch size.
func (c *ClusterSim) IterationUS(spec models.Spec, batch int) float64 {
	n := c.Servers
	sizes := spec.TensorSizes()

	// Pull: each placed tensor's shard sends it to every worker.
	placed := c.placeTensors(sizes)
	var pulls, pushes []transfer
	for _, pt := range placed {
		for w := 0; w < n; w++ {
			pulls = append(pulls, transfer{src: pt.shard, dst: w, size: pt.size})
			pushes = append(pushes, transfer{src: w, dst: pt.shard, size: pt.size})
		}
	}
	pull := maxOf(c.phaseTime(pulls))
	push := maxOf(c.phaseTime(pushes))
	comp := spec.Compute.MinibatchMS(batch) * 1000

	// Apply: each shard folds n gradients into its variables.
	var apply Time
	for s := 0; s < n; s++ {
		var shardBytes int64
		for _, pt := range placed {
			if pt.shard == s {
				shardBytes += pt.size
			}
		}
		if t := us(shardBytes*int64(n), c.ApplyGBps); t > apply {
			apply = t
		}
	}

	// A SerialFrac share of communication cannot hide under compute (head
	// weights, tail gradients); the rest overlaps the way TensorFlow's
	// scheduler interleaves transfers with layer execution.
	comm := pull + push
	serial := c.SerialFrac * comm
	hidden := comm - serial
	if comp > hidden {
		hidden = comp
	}
	return RuntimeOverheadUS + serial + hidden + apply
}

// ThroughputSamplesPerSec converts an iteration time into aggregate
// samples/second across all workers.
func (c *ClusterSim) ThroughputSamplesPerSec(spec models.Spec, batch int) float64 {
	it := c.IterationUS(spec, batch)
	return float64(c.Servers*batch) / (it / 1e6)
}

// LocalThroughputSamplesPerSec is the communication-free single-device
// baseline (the "Local" line of Figure 11).
func LocalThroughputSamplesPerSec(spec models.Spec, batch int) float64 {
	return float64(batch) / (spec.Compute.MinibatchMS(batch) / 1e3)
}

// MicroIterUS prices one iteration of the §5.1 micro-benchmark: a single
// tensor transfer between two servers plus the receiver's reduce_max, under
// the per-iteration runtime overhead. Tensors are host-resident, so no GPU
// staging applies.
func MicroIterUS(kind distributed.Kind, size int64) float64 {
	p := ParamsFor(kind, true /* host tensors: no GPU staging */)
	reduce := us(size, 100) // device-side reduction streams the payload once
	return RuntimeOverheadUS + p.TransferUS(size) + reduce
}
