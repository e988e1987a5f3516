package main

// The benchmark's fixed vocabulary: workload names, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the
// repository root carries the same lists for the driver; TestBenchmarkJSON
// keeps the two in step.

// The JSON tags are BENCHMARK.json's keys.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) (*result, error)
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound, end-to-end only: the share of the baseline median the metric may
	// worsen by.
	Bound float64 `json:"bound,omitempty"`
}

var workloads = []workloadSpec{
	{"train_ps_cpu", "CPU-bound PS step: kernels, exec scheduling, receive polling and the plain single-lane static write all block the step; no wire model", runTrainPSCPU},
	{"train_ring_wire", "wire-bound ring all-reduce step under a 62.5 MB/s per-NIC-direction model: comm plane shape, bucketing and overlap decide it, kernels are ~10%", runTrainRingWire},
	{"xfer_static", "static one-sided write path (payload then flag) with striping and coalescing on: 64x1KiB per step, then 1x8MiB per step; no kernels", runXferStatic},
	{"xfer_dynamic", "dynamic path (metadata write, receiver allocation, one-sided read, ack) on the same shapes: catches static-path gains paid for by the read path", runXferDynamic},
	{"serve_fleet", "serving plane: 2 replicas, publish every 100 ms under live queries; 4 closed-loop clients (partial batches), then 32 (two full batches in flight)", runServeFleet},
}

// Every workload reports every end-to-end metric; what one "op" and one unit
// of "work" are is fixed per workload (README.md, metric glossary):
//
//	train_*     op = one Cluster.Step                work = training samples
//	xfer_*      op = one 64x1KiB Step (phase small)  work = payload MB delivered (phase large)
//	serve_fleet op = one Query, 4 clients (sparse)   work = verified replies, 32 clients (full)
//
// A bound applies to its metric on every workload, so it is sized for the
// least steady one. On the shared 2-core box this was sized on, the host has
// spells of a minute or two in which xfer_static's step takes a third longer
// (CPU per op rises with it); quiet ten-run sets spread by 1-8 %.
var endToEnd = []metricSpec{
	{"op_ms_p50", "ms", "lower", 0.20},
	{"op_ms_p95", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, named <module>.<metric>. Probes time direct calls into
// a layer's public functions and are the same on every workload; books are
// deltas of the program's public counters over the traced window and read 0
// where the layer is not on the workload's path.
var perLayer = []metricSpec{
	{Name: "tensor.matmul_fwd_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_grad_us", Unit: "us", Better: "lower"},
	{Name: "tensor.softmax_us", Unit: "us", Better: "lower"},
	{Name: "tensor.kernel_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "tensor.kernel_calls_per_op", Unit: "count", Better: "lower"},

	{Name: "exec.compute_frac", Unit: "ratio", Better: "higher"},
	{Name: "exec.comm_frac", Unit: "ratio", Better: "lower"},
	{Name: "exec.pollwait_frac", Unit: "ratio", Better: "lower"},
	{Name: "exec.idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "exec.balance_err", Unit: "ratio", Better: "lower"},
	{Name: "exec.ops_per_step", Unit: "count", Better: "lower"},
	{Name: "exec.polled_batch_mean", Unit: "count", Better: "higher"},
	{Name: "exec.poll_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "exec.local_step_ms", Unit: "ms", Better: "lower"},

	{Name: "analyzer.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "analyzer.static_edges", Unit: "count", Better: "lower"},
	{Name: "analyzer.dynamic_edges", Unit: "count", Better: "lower"},

	{Name: "distributed.launch_ms", Unit: "ms", Better: "lower"},
	{Name: "distributed.init_ms", Unit: "ms", Better: "lower"},
	{Name: "distributed.first_step_ms", Unit: "ms", Better: "lower"},
	{Name: "distributed.close_ms", Unit: "ms", Better: "lower"},

	{Name: "comm.buckets", Unit: "count", Better: "lower"},
	{Name: "comm.bytes_per_step_per_task", Unit: "bytes", Better: "lower"},
	{Name: "comm.messages_per_step", Unit: "count", Better: "lower"},

	{Name: "rdma.memcpy_sync_us_8b", Unit: "us", Better: "lower"},
	{Name: "rdma.static_write_us_1k", Unit: "us", Better: "lower"},
	{Name: "rdma.static_write_us_8m", Unit: "us", Better: "lower"},
	{Name: "rdma.striped_write_us_8m", Unit: "us", Better: "lower"},
	{Name: "rdma.coalesced_flush_us_64x1k", Unit: "us", Better: "lower"},
	{Name: "rdma.dyn_read_us_1k", Unit: "us", Better: "lower"},
	{Name: "rdma.dyn_read_us_8m", Unit: "us", Better: "lower"},
	{Name: "rdma.lossy_send_us_1m", Unit: "us", Better: "lower"},
	{Name: "rdma.mux_acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "rdma.mem_copies", Unit: "count", Better: "lower"},
	{Name: "rdma.copied_bytes", Unit: "bytes", Better: "lower"},
	{Name: "rdma.zero_copy_ops", Unit: "count", Better: "higher"},
	{Name: "rdma.doorbell_flushes", Unit: "count", Better: "lower"},
	{Name: "rdma.stripe_segments", Unit: "count", Better: "lower"},
	{Name: "rdma.coalesce_flushes", Unit: "count", Better: "lower"},
	{Name: "rdma.coalesced_msgs_per_flush", Unit: "count", Better: "higher"},
	{Name: "rdma.retries", Unit: "count", Better: "lower"},
	{Name: "rdma.timeouts", Unit: "count", Better: "lower"},
	{Name: "rdma.edge_xfer_us_mean", Unit: "us", Better: "lower"},

	{Name: "rpc.call_us", Unit: "us", Better: "lower"},
	{Name: "wire.batch_encode_us_64x1k", Unit: "us", Better: "lower"},
	{Name: "transport.ring_send_us_64k", Unit: "us", Better: "lower"},

	{Name: "serve.infer_us", Unit: "us", Better: "lower"},
	{Name: "serve.publish_us", Unit: "us", Better: "lower"},
	{Name: "serve.publish_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "serve.publish_to_served_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.batches_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.bank_swaps", Unit: "count", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.routing_rejects", Unit: "count", Better: "lower"},
	{Name: "serve.staleness_versions_max", Unit: "count", Better: "lower"},

	{Name: "netsim.ring_exchange_ms_pred", Unit: "ms", Better: "lower"},
	{Name: "netsim.measured_over_pred", Unit: "ratio", Better: "lower"},

	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.dropped", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func findMetric(name string) *metricSpec {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// benchmarkSpec renders the in-code vocabulary as BENCHMARK.json
// (`rdmadl-bench spec > BENCHMARK.json`).
func benchmarkSpec() benchmarkJSON {
	return benchmarkJSON{
		Command:    []string{"bash", "cmd/rdmadl-bench/run.sh"},
		Paths:      []string{"cmd/rdmadl-bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
