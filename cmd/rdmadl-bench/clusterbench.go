package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/distributed"
	"repro/internal/metrics"
)

// clusterInst is one launched cluster with its closed loop, ready for its
// first step.
type clusterInst struct {
	cl   *distributed.Cluster
	loop *stepLoop
	// tasks are the tasks whose scheduler time the exec.* books cover.
	tasks   []string
	buckets int
}

// stageMS is where one cold start's time went, per public call.
type stageMS struct {
	launch, init, firstStep, close float64
}

// clusterPhase is one timed phase of a Step-driven workload: a graph of its
// own, launched, warmed, run for its share of the window and closed.
type clusterPhase struct {
	name string
	// start builds and launches the phase's cluster. It records one span per
	// public call under parent and the calls' wall times in st.
	start func(tr *tracer, parent *span, st *stageMS) (*clusterInst, error)
}

type phaseRun struct {
	ms  []float64 // per-step wall, ms
	win *window   // wall, CPU and allocation over the timed steps only
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// coldCycle is one setup cycle of a phase: start, first successful step,
// close. The first step is the allocation-site tracing step.
func (p *clusterPhase) coldCycle(tr *tracer, parent *span, st *stageMS) error {
	sp := tr.begin(parent, "bench", "cold-cycle:"+p.name)
	defer sp.End()
	inst, err := p.start(tr, sp, st)
	if err != nil {
		return err
	}
	fs := tr.begin(sp, "distributed", "Cluster.Step(first)")
	t := time.Now()
	err = inst.loop.warm(1)
	st.firstStep += msSince(t)
	fs.End()
	cs := tr.begin(sp, "distributed", "Cluster.Close")
	t = time.Now()
	inst.cl.Close()
	st.close += msSince(t)
	cs.End()
	return err
}

// runPhase starts the phase's cluster, warms it up and runs its timed window.
// after, if non-nil, runs before the cluster is closed (guards, catch-up
// verification steps, books).
func (p *clusterPhase) runPhase(tr *tracer, parent *span, d time.Duration, res *result,
	after func(inst *clusterInst, before books) error) (phaseRun, error) {
	var st stageMS
	inst, err := p.start(tr, parent, &st)
	if err != nil {
		return phaseRun{}, fmt.Errorf("phase %s: %w", p.name, err)
	}
	defer inst.cl.Close()
	inst.loop.tr, inst.loop.parent = tr, parent
	if err := inst.loop.warm(warmupOps); err != nil {
		return phaseRun{}, fmt.Errorf("phase %s warm-up: %w", p.name, err)
	}
	before := readBooks(inst)
	run := phaseRun{win: startWindow()}
	run.ms = inst.loop.timed(d, res)
	run.win.end()
	if after != nil {
		if err := after(inst, before); err != nil {
			return run, fmt.Errorf("phase %s: %w", p.name, err)
		}
	}
	return run, nil
}

// books is one reading of the program's public counters for a cluster, as a
// vector so that two readings subtract and phases add up. Everything is
// cumulative since launch except bKernel*, which are process-wide.
type books [nBook]float64

const (
	bSteps = iota // completed steps
	// metrics.Comm, summed over tasks
	bBytesSent
	bMessages
	bMemCopies
	bCopiedBytes
	bZeroCopyOps
	bDynTransfers
	bRetries
	bTimeouts
	bStripeSegments
	bCoalesceFlushes
	bCoalescedMessages
	bDoorbellFlushes
	// metrics.StepSummary totals, summed over the covered tasks (ns)
	bCompute
	bComm
	bPollWait
	bIdle
	bOps
	bWorkerTime // Workers x Wall
	// histograms, merged over tasks
	bPollSleeps
	bPollSleepNs
	bPolledBatches
	bPolledOps
	bEdgeXfers
	bEdgeXferNs
	// metrics.KernelSnapshot, compute operators only
	bKernelNs
	bKernelCalls
	nBook
)

func (a books) minus(b books) books {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func readBooks(inst *clusterInst) books {
	var b books
	for _, s := range inst.cl.MetricsSnapshot() {
		for i, v := range [nBook]int64{
			bBytesSent: s.BytesSent, bMessages: s.Messages, bMemCopies: s.MemCopies,
			bCopiedBytes: s.CopiedBytes, bZeroCopyOps: s.ZeroCopyOps, bDynTransfers: s.DynTransfers,
			bRetries: s.Retries, bTimeouts: s.Timeouts, bStripeSegments: s.StripeSegments,
			bCoalesceFlushes: s.CoalesceFlushes, bCoalescedMessages: s.CoalescedMessages,
			bDoorbellFlushes: s.DoorbellFlushes,
		} {
			b[i] += float64(v)
		}
	}
	sums := inst.cl.StepSummaries()
	b[bSteps] = float64(sums[inst.tasks[0]].Steps)
	for _, task := range inst.tasks {
		t := sums[task].Totals
		b[bCompute] += float64(t.Compute)
		b[bComm] += float64(t.Comm)
		b[bPollWait] += float64(t.PollWait)
		b[bIdle] += float64(t.Idle)
		b[bOps] += float64(t.Ops)
		b[bWorkerTime] += float64(t.Workers) * float64(t.Wall)
	}
	for _, hs := range inst.cl.HistSnapshots() {
		poll, polled := hs.Hists[metrics.HistPollWaitNs], hs.Hists[metrics.HistPolledBatch]
		xfer := metrics.FamilyTotal(hs.Families[metrics.HistEdgeXferNs])
		b[bPollSleeps] += float64(poll.Count)
		b[bPollSleepNs] += float64(poll.Sum)
		b[bPolledBatches] += float64(polled.Count)
		b[bPolledOps] += float64(polled.Sum)
		b[bEdgeXfers] += float64(xfer.Count)
		b[bEdgeXferNs] += float64(xfer.Sum)
	}
	kernel, calls := kernelTotals()
	b[bKernelNs], b[bKernelCalls] = float64(kernel), float64(calls)
	return b
}

// isEdgeOp reports whether an operator name is a communication operator
// (the send/recv halves the partitioner inserts).
func isEdgeOp(op string) bool {
	return strings.HasPrefix(op, "Rdma") || strings.HasPrefix(op, "RPC") || strings.HasPrefix(op, "Coalesced")
}

// kernelTotals sums the process-wide kernel time and calls of compute
// operators.
func kernelTotals() (total time.Duration, calls int64) {
	for _, k := range metrics.KernelSnapshot() {
		if !isEdgeOp(k.Op) {
			total += k.Total
			calls += k.Count
		}
	}
	return total, calls
}

// bookTotals accumulates book deltas over the traced windows of a workload's
// phases, then emits the per-layer book metrics.
type bookTotals struct {
	d       books
	tasks   int
	buckets int
	static  int
	dynamic int
}

func (t *bookTotals) add(inst *clusterInst, before books) {
	d := readBooks(inst).minus(before)
	for i := range d {
		t.d[i] += d[i]
	}
	res := inst.cl.Result()
	t.tasks = len(res.Tasks)
	t.buckets += inst.buckets
	t.static += len(res.StaticEdges())
	t.dynamic += len(res.DynamicEdges())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *bookTotals) emit(res *result) {
	d, steps := t.d, t.d[bSteps]
	res.set("tensor.kernel_ms_per_op", ratio(d[bKernelNs]/1e6, steps))
	res.set("tensor.kernel_calls_per_op", ratio(d[bKernelCalls], steps))

	w := d[bWorkerTime]
	compute, comm := ratio(d[bCompute], w), ratio(d[bComm], w)
	poll, idle := ratio(d[bPollWait], w), ratio(d[bIdle], w)
	res.set("exec.compute_frac", compute)
	res.set("exec.comm_frac", comm)
	res.set("exec.pollwait_frac", poll)
	res.set("exec.idle_frac", idle)
	res.set("exec.balance_err", math.Abs(1-(compute+comm+poll+idle)))
	res.set("exec.ops_per_step", ratio(d[bOps], steps))
	res.set("exec.polled_batch_mean", ratio(d[bPolledOps], d[bPolledBatches]))
	res.set("exec.poll_wait_us_mean", ratio(d[bPollSleepNs]/1e3, d[bPollSleeps]))

	res.set("analyzer.static_edges", float64(t.static))
	res.set("analyzer.dynamic_edges", float64(t.dynamic))

	res.set("comm.buckets", float64(t.buckets))
	res.set("comm.bytes_per_step_per_task", ratio(d[bBytesSent], steps*float64(t.tasks)))
	res.set("comm.messages_per_step", ratio(d[bMessages], steps))

	res.set("rdma.mem_copies", ratio(d[bMemCopies], steps))
	res.set("rdma.copied_bytes", ratio(d[bCopiedBytes], steps))
	res.set("rdma.zero_copy_ops", ratio(d[bZeroCopyOps], steps))
	res.set("rdma.doorbell_flushes", ratio(d[bDoorbellFlushes], steps))
	res.set("rdma.stripe_segments", ratio(d[bStripeSegments], steps))
	res.set("rdma.coalesce_flushes", ratio(d[bCoalesceFlushes], steps))
	res.set("rdma.coalesced_msgs_per_flush", ratio(d[bCoalescedMessages], d[bCoalesceFlushes]))
	res.set("rdma.retries", d[bRetries])
	res.set("rdma.timeouts", d[bTimeouts])
	res.set("rdma.edge_xfer_us_mean", ratio(d[bEdgeXferNs]/1e3, d[bEdgeXfers]))
}

// clusterWorkload is the shared shape of the four Step-driven workloads.
type clusterWorkload struct {
	phases []clusterPhase
	// latencyPhase and workPhase index phases: whose step times become
	// op_ms_*, and whose throughput becomes work_per_s.
	latencyPhase, workPhase int
	// workPerStep is the units of work one step of workPhase completes.
	workPerStep float64
	// wireModel marks the workload whose step the netsim ring model prices.
	wireModel bool
	// after runs on each phase's cluster before it closes (guards, catch-up
	// verification).
	after func(phase int, inst *clusterInst, before books, res *result) error
	// finish adds workload-specific checks once every phase ran.
	finish func(res *result) error
}

// afterPhase adapts w.after to runPhase's hook for phase i.
func (w *clusterWorkload) afterPhase(i int, res *result) func(*clusterInst, books) error {
	return func(inst *clusterInst, before books) error {
		if w.after == nil {
			return nil
		}
		return w.after(i, inst, before, res)
	}
}

func (w *clusterWorkload) setupCycle(tr *tracer, parent *span, st *stageMS) error {
	for i := range w.phases {
		if err := w.phases[i].coldCycle(tr, parent, st); err != nil {
			return err
		}
	}
	return nil
}

// run is the untraced measurement: setup cycles, then every phase's window.
func (w *clusterWorkload) run(ctx *runCtx) (*result, error) {
	res := newResult()
	setup, err := ctx.medianSetup(func() error { return w.setupCycle(nil, nil, &stageMS{}) })
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)

	// The window is spent in rounds: each round launches every phase afresh.
	// A cluster settles into a polling rhythm that can differ from one launch
	// to the next by a tenth of the step time and then stays put, and the
	// host has noisy spells of a few seconds; a run reports the median over
	// its rounds, so neither decides a run's value.
	per := ctx.window() / time.Duration(rounds*len(w.phases))
	latency := make([][]float64, rounds)
	work, cpuPerOp := make([]float64, rounds), make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		var cpu time.Duration
		ops := 0
		for i := range w.phases {
			run, err := w.phases[i].runPhase(nil, nil, per, res, w.afterPhase(i, res))
			if err != nil {
				return nil, err
			}
			if i == w.latencyPhase {
				latency[r] = run.ms
			}
			if i == w.workPhase {
				work[r] = ratio(w.workPerStep*float64(len(run.ms)), sumMS(run.ms)/1e3)
				res.Samples[w.phases[i].name] += len(run.ms)
			}
			cpu += run.win.CPU
			ops += len(run.ms)
			runtime.GC() // the closed cluster's arenas; keeps peak_rss_mb about live memory
		}
		cpuPerOp[r] = ratio(float64(cpu.Nanoseconds())/1e6, float64(ops))
	}
	if w.finish != nil {
		if err := w.finish(res); err != nil {
			return nil, err
		}
	}
	res.latencyStats(w.phases[w.latencyPhase].name, latency)
	res.set("work_per_s", median(work))
	res.set("cpu_ms_per_op", median(cpuPerOp))
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}
