package main

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// The traced run of a workload: cold cycles under spans (distributed.*), a
// short untraced window, the same window again with distributed.Config.Trace
// on and a benchmark-side span around every call (books, trace.*,
// runtime.*), then the layer probes. Each window is a quarter of --seconds.

const tracedCycles = 3

// tracedParts are the pieces every traced run assembles its metrics from.
type tracedParts struct {
	res        *result
	tr         *tracer
	root       *span
	cycles     []stageMS
	untracedMS []float64 // latency-phase op times, tracing off
	tracedMS   []float64 // the same, tracing on
	ops        int       // operations in the traced window
	wins       []*window // the traced window's phase windows
}

func (t *tracedParts) coldCycles(cycle func(tr *tracer, parent *span, st *stageMS) error) error {
	for i := 0; i < tracedCycles; i++ {
		var st stageMS
		if err := cycle(t.tr, t.root, &st); err != nil {
			return fmt.Errorf("setup cycle %d: %w", i, err)
		}
		t.cycles = append(t.cycles, st)
	}
	return nil
}

// emit writes the metrics common to every traced run and the trace file.
func (t *tracedParts) emit(ctx *runCtx) error {
	res := t.res
	pick := func(f func(stageMS) float64) float64 {
		v := make([]float64, len(t.cycles))
		for i, c := range t.cycles {
			v[i] = f(c)
		}
		return median(v)
	}
	res.set("distributed.launch_ms", pick(func(s stageMS) float64 { return s.launch }))
	res.set("distributed.init_ms", pick(func(s stageMS) float64 { return s.init }))
	res.set("distributed.first_step_ms", pick(func(s stageMS) float64 { return s.firstStep }))
	res.set("distributed.close_ms", pick(func(s stageMS) float64 { return s.close }))

	off, on := median(t.untracedMS), median(t.tracedMS)
	res.set("trace.overhead_frac", ratio(on-off, off))
	res.Info["op_ms_p50_untraced"] = off
	res.Info["op_ms_p50_traced"] = on

	var bytes, mallocs uint64
	var pause time.Duration
	for _, w := range t.wins {
		bytes += w.Bytes
		mallocs += w.Mallocs
		pause += w.GCPause
	}
	res.set("runtime.heap_bytes_per_op", ratio(float64(bytes), float64(t.ops)))
	res.set("runtime.mallocs_per_op", ratio(float64(mallocs), float64(t.ops)))
	res.set("runtime.gc_pause_ms", float64(pause.Nanoseconds())/1e6)

	if err := runProbes(ctx, t.tr, t.root, res); err != nil {
		return err
	}
	t.root.End()
	res.set("trace.spans", float64(t.tr.rec.Len()))
	res.set("trace.dropped", float64(t.tr.rec.Dropped()))
	if err := t.tr.write(ctx.traceOut); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

func newTracedParts() *tracedParts {
	tr := newTracer()
	return &tracedParts{res: newResult(), tr: tr, root: tr.begin(nil, "bench", "traced-run")}
}

func (w *clusterWorkload) runTraced(ctx *runCtx) (*result, error) {
	t := newTracedParts()
	res := t.res
	if err := t.coldCycles(w.setupCycle); err != nil {
		return nil, err
	}
	per := ctx.window() / 4 / time.Duration(len(w.phases))
	for i := range w.phases {
		run, err := w.phases[i].runPhase(nil, nil, per, res, w.afterPhase(i, res))
		if err != nil {
			return nil, err
		}
		if i == w.latencyPhase {
			t.untracedMS = run.ms
		}
	}
	var totals bookTotals
	for i := range w.phases {
		i := i
		sp := t.tr.begin(t.root, "bench", "phase:"+w.phases[i].name)
		run, err := w.phases[i].runPhase(t.tr, sp, per, res,
			func(inst *clusterInst, before books) error {
				totals.add(inst, before) // before any catch-up steps the guards run
				return w.afterPhase(i, res)(inst, before)
			})
		sp.End()
		if err != nil {
			return nil, err
		}
		if i == w.latencyPhase {
			t.tracedMS = run.ms
		}
		t.ops += len(run.ms)
		t.wins = append(t.wins, run.win)
	}
	if w.finish != nil {
		if err := w.finish(res); err != nil {
			return nil, err
		}
	}
	totals.emit(res)
	if err := t.emit(ctx); err != nil {
		return nil, err
	}
	if w.wireModel {
		res.set("netsim.measured_over_pred",
			ratio(median(t.untracedMS), res.Metrics["netsim.ring_exchange_ms_pred"].Value))
	}
	return res, nil
}

func runServeTraced(ctx *runCtx) (*result, error) {
	t := newTracedParts()
	res := t.res
	err := t.coldCycles(func(tr *tracer, parent *span, st *stageMS) error {
		return serveCycle(ctx.seed, tr, parent, st)
	})
	if err != nil {
		return nil, err
	}
	d := ctx.window() / 4
	_, off, err := runServePhases(ctx, d, 1, nil, nil, res)
	if err != nil {
		return nil, err
	}
	sp := t.tr.begin(t.root, "bench", "phases")
	sb, on, err := runServePhases(ctx, d, 1, t.tr, sp, res)
	sp.End()
	if err != nil {
		return nil, err
	}
	round := on.rounds[0]
	t.untracedMS, t.tracedMS = off.rounds[0].sparse.ms, round.sparse.ms
	t.ops = len(round.sparse.replies) + len(round.full.replies)
	t.wins = []*window{round.sparse.win, round.full.win}

	// Books: the serving plane's own counters over the traced window.
	a, b := on.after, on.before
	wall := (round.sparse.win.Wall + round.full.win.Wall).Seconds()
	hist := func(name string) (count, sum int64) {
		after, before := on.histsAfter.Hists[name], on.histsBefore.Hists[name]
		return after.Count - before.Count, after.Sum - before.Sum
	}
	qn, qs := hist(metrics.HistServeQueueNs)
	bn, bs := hist(metrics.HistServeBatchSize)
	res.set("serve.queue_wait_us_mean", ratio(float64(qs)/1e3, float64(qn)))
	res.set("serve.batch_size_mean", ratio(float64(bs), float64(bn)))
	res.set("serve.batches_per_s", ratio(float64(a.ServeBatches-b.ServeBatches), wall))
	res.set("serve.bank_swaps", float64(a.BankSwaps-b.BankSwaps))
	res.set("serve.shed", float64(a.QueriesShed-b.QueriesShed))
	res.set("serve.routing_rejects", float64(a.RoutingRejects-b.RoutingRejects))
	res.set("serve.staleness_versions_max", float64(a.StalenessVersionsMax))
	res.set("serve.publish_to_served_ms_p50", median(sb.publishToServedMS(on.rounds)))
	res.set("tensor.kernel_ms_per_op", ratio(float64(on.kernelNs.Nanoseconds())/1e6, float64(t.ops)))
	res.set("tensor.kernel_calls_per_op", ratio(float64(on.kernelCalls), float64(t.ops)))

	if err := t.emit(ctx); err != nil {
		return nil, err
	}
	return res, nil
}
