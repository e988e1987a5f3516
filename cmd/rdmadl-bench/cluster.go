package main

import (
	"time"

	"repro/internal/distributed"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

type (
	feedMap  = map[string]map[string]*tensor.Tensor
	fetchMap = map[string][]string
)

// clusterConfig is the one cluster configuration every Step-driven workload
// launches with; only the transfer policy and the trace recorder vary.
func clusterConfig(xfer rdma.TransferOpts, tr *tracer) distributed.Config {
	return distributed.Config{
		Kind:          distributed.RDMA,
		ExecWorkers:   execWorkers,
		KernelWorkers: kernelWorkers,
		Transfer:      xfer,
		Trace:         tr.recorder(),
	}
}

// stepLoop drives Cluster.Step in a closed loop from one goroutine: the next
// step starts when the previous one returned and was checked.
type stepLoop struct {
	cl      *distributed.Cluster
	tr      *tracer
	parent  *span
	fetches fetchMap
	// feeds returns the iteration's inputs; check verifies its outputs.
	feeds func(iter int) feedMap
	check func(iter int, out feedMap) error

	iter int // next iteration number
}

// warm runs n untimed steps; any failure is returned, not counted: a
// workload that cannot warm up has no numbers to report.
func (l *stepLoop) warm(n int) error {
	for i := 0; i < n; i++ {
		out, err := l.cl.Step(l.iter, l.feeds(l.iter), l.fetches)
		if err != nil {
			return err
		}
		if err := l.check(l.iter, out); err != nil {
			return err
		}
		l.iter++
	}
	return nil
}

// timed runs steps until d has elapsed and returns each step's wall time in
// milliseconds. Output checks run between steps, outside the step timer.
// Failures are counted on res; a failed Step ends the phase, because the
// cluster's state is no longer what the workload describes.
func (l *stepLoop) timed(d time.Duration, res *result) []float64 {
	var ms []float64
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		feeds := l.feeds(l.iter)
		sp := l.tr.beginIter(l.parent, "distributed", "Cluster.Step", l.iter)
		start := time.Now()
		out, err := l.cl.Step(l.iter, feeds, l.fetches)
		elapsed := time.Since(start)
		sp.End()
		res.Attempted++
		if err != nil {
			res.fail("step %d: %v", l.iter, err)
			break
		}
		if err := l.check(l.iter, out); err != nil {
			res.fail("step %d: %v", l.iter, err)
		}
		ms = append(ms, float64(elapsed.Nanoseconds())/1e6)
		l.iter++
	}
	return ms
}

func sumMS(ms []float64) float64 {
	t := 0.0
	for _, v := range ms {
		t += v
	}
	return t
}
