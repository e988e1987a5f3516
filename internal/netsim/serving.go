package netsim

import (
	"fmt"
	"math"

	"repro/internal/distributed"
)

// This file prices the serving plane at population scale: a trainer
// publishing weight versions to N inference replicas over one-sided RDMA
// (internal/serve) while a large user population offers queries against the
// fleet. The model answers the question the serving gate cannot — what a
// million users do to the staleness/throughput tradeoff — in the same
// closed-form style as QPCost: deterministic arithmetic over calibrated
// constants, cheap enough to sweep.
//
// Two opposing forces set the shape of the curve:
//
//   - Publishing more often keeps replicas fresher (staleness is bounded by
//     the publish interval plus the fan-out time), but every publication
//     costs each replica a swap-drain window in which it answers no
//     queries, so serving capacity falls as the interval shrinks.
//   - Publishing less often returns that capacity but widens the window in
//     which a served answer reflects old weights.
//
// The protocol's version-staleness bound (no replica more than one version
// behind) holds only while a full fan-out completes inside the publish
// interval; the model reports when a configuration breaks that invariant.

// ServeLoad describes the offered query load: a user population with an
// average think time between queries (the classic closed-loop load model).
type ServeLoad struct {
	// Users is the concurrent user population.
	Users int
	// ThinkTimeS is the mean seconds a user waits between queries.
	ThinkTimeS float64
}

// OfferedQPS is the aggregate query arrival rate of the population.
func (l ServeLoad) OfferedQPS() float64 {
	if l.Users <= 0 || l.ThinkTimeS <= 0 {
		return 0
	}
	return float64(l.Users) / l.ThinkTimeS
}

// ServeCost calibrates the per-replica serving cost model and the
// publication fan-out path.
type ServeCost struct {
	// Replicas is the inference fleet size.
	Replicas int
	// Lanes stripes each bank publication across QP lanes.
	Lanes int
	// PayloadBytes is one weight version (the layout's payload size).
	PayloadBytes int64
	// RowComputeUS is the forward-pass compute per query row inside a
	// batch (the marginal row cost; matmul batching amortizes the rest).
	RowComputeUS float64
	// BatchOverheadUS is the fixed per-batch cost: dispatch, feed
	// assembly, demux.
	BatchOverheadUS float64
	// BatchSize is the most rows one frontend dispatch carries.
	BatchSize int
	// SwapDrainUS is how long a replica is out of service per version
	// swap: draining pinned readers of the old bank plus the ack
	// write-back. The bank payload itself lands one-sided and costs the
	// replica nothing — this is the only serving-side publication tax.
	SwapDrainUS float64
	// Net prices the publish path (trainer NIC → replica banks).
	Net Params
}

// DefaultServeCost returns the calibration used by the serving benchmarks:
// a GPUDirect RDMA publish path and per-query costs representative of a
// small MLP served from host-pinned banks.
func DefaultServeCost(replicas int, payloadBytes int64) ServeCost {
	return ServeCost{
		Replicas:        replicas,
		Lanes:           4,
		PayloadBytes:    payloadBytes,
		RowComputeUS:    40,
		BatchOverheadUS: 150,
		BatchSize:       32,
		SwapDrainUS:     50,
		Net:             ParamsFor(distributed.RDMA, true),
	}
}

// ServeReport is the serving bill for one load point at one publish
// interval.
type ServeReport struct {
	Replicas int
	Users    int
	// OfferedQPS is the population's arrival rate.
	OfferedQPS float64
	// CapacityQPS is the fleet's sustainable rate at this publish
	// interval (per-replica batch throughput, discounted by the
	// swap-drain duty cycle).
	CapacityQPS float64
	// ServedQPS is min(offered, capacity): the admission controller sheds
	// the rest rather than queueing unboundedly.
	ServedQPS float64
	// ShedFraction is the fraction of offered queries shed.
	ShedFraction float64
	// UtilizationPct is served/capacity.
	UtilizationPct float64
	// PublishUS is one full fan-out: the striped payload to every
	// replica, serialized at the trainer NIC, tail flag last.
	PublishUS float64
	// PublishIntervalMS is the trainer's snapshot cadence.
	PublishIntervalMS float64
	// StalenessMaxVersions is the worst-case version gap a served answer
	// can carry. 1 while a fan-out completes within the interval — the
	// protocol's bound — and ceil(PublishUS/interval) once publication
	// falls behind the cadence.
	StalenessMaxVersions int
	// StalenessMaxMS is the oldest weights (in wall time) a served answer
	// can reflect: one full interval plus the fan-out in flight.
	StalenessMaxMS float64
}

// Report prices one load point: offered load against fleet capacity at the
// given publish cadence.
func (c ServeCost) Report(load ServeLoad, publishIntervalMS float64) ServeReport {
	r := ServeReport{
		Replicas:          c.Replicas,
		Users:             load.Users,
		OfferedQPS:        load.OfferedQPS(),
		PublishIntervalMS: publishIntervalMS,
	}
	if c.Replicas < 1 || c.BatchSize < 1 || publishIntervalMS <= 0 {
		return r
	}

	// One batch: fixed dispatch cost plus the marginal rows.
	batchUS := c.BatchOverheadUS + float64(c.BatchSize)*c.RowComputeUS
	perReplicaQPS := float64(c.BatchSize) / batchUS * 1e6

	// Publication: each replica's bank is striped over Lanes QPs, but the
	// stripes and the N replica fan-outs all share the one trainer NIC, so
	// wire occupancy serializes across the fleet; the per-stripe post
	// overhead and the propagation latency are paid once (the stripes of
	// the next replica are posted while the previous ones drain).
	lanes := c.Lanes
	if lanes < 1 {
		lanes = 1
	}
	stripe := (c.PayloadBytes + int64(lanes) - 1) / int64(lanes)
	r.PublishUS = c.Net.SendOverheadUS(stripe) + c.Net.WireLatUS +
		float64(c.Replicas)*c.Net.WireUS(c.PayloadBytes)

	// Swap-drain duty cycle: each interval costs every replica one drain.
	intervalUS := publishIntervalMS * 1e3
	avail := 1 - c.SwapDrainUS/intervalUS
	if avail < 0 {
		avail = 0
	}
	r.CapacityQPS = float64(c.Replicas) * perReplicaQPS * avail

	r.ServedQPS = r.OfferedQPS
	if r.ServedQPS > r.CapacityQPS {
		r.ServedQPS = r.CapacityQPS
	}
	if r.OfferedQPS > 0 {
		r.ShedFraction = (r.OfferedQPS - r.ServedQPS) / r.OfferedQPS
	}
	if r.CapacityQPS > 0 {
		r.UtilizationPct = r.ServedQPS / r.CapacityQPS * 100
	}

	// Version staleness: the flag-after-payload protocol keeps every
	// replica within one version while a fan-out fits the cadence. When
	// PublishUS exceeds the interval the trainer is still writing v while
	// staging v+1: answers can lag by however many intervals one fan-out
	// spans.
	r.StalenessMaxVersions = 1
	if r.PublishUS > intervalUS {
		r.StalenessMaxVersions = int(math.Ceil(r.PublishUS / intervalUS))
	}
	r.StalenessMaxMS = publishIntervalMS + r.PublishUS/1e3
	return r
}

// StalenessSweep prices the same load across publish cadences — the
// staleness-vs-throughput curve BENCH_serve.json records. Intervals are in
// milliseconds, typically descending (fresher weights to the right).
func (c ServeCost) StalenessSweep(load ServeLoad, intervalsMS []float64) []ServeReport {
	out := make([]ServeReport, 0, len(intervalsMS))
	for _, ms := range intervalsMS {
		out = append(out, c.Report(load, ms))
	}
	return out
}

func (r ServeReport) String() string {
	return fmt.Sprintf(
		"replicas=%d users=%d offered=%.0fqps capacity=%.0fqps served=%.0fqps shed=%.1f%% publish=%.2fms interval=%.0fms staleness<=%dv/%.1fms",
		r.Replicas, r.Users, r.OfferedQPS, r.CapacityQPS, r.ServedQPS,
		r.ShedFraction*100, r.PublishUS/1e3, r.PublishIntervalMS,
		r.StalenessMaxVersions, r.StalenessMaxMS)
}
