package distributed

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// TestArenaStableOverManyDynamicIterations: the dynamic protocol allocates
// a fresh receive buffer per iteration and the sender promotes its payload
// sites into the arena; the deferred-free logic must keep arena occupancy
// bounded over a long run (leaks here would exhaust registered memory on
// real hardware).
func TestArenaStableOverManyDynamicIterations(t *testing.T) {
	b := graph.NewBuilder()
	b.OnTask("worker0")
	x := b.Placeholder("x", graph.Dyn(tensor.Float32, -1, 32))
	act := b.Tanh("act", b.Scale("scale", x, 0.5))
	b.OnTask("ps0")
	b.ReduceMax("sink", act)
	cl, err := Launch(b, Config{Kind: RDMA, ArenaBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const iters = 200
	var peakWorker, peakPS int
	for iter := 0; iter < iters; iter++ {
		batch := 1 + (iter*7)%23 // varying shapes every iteration
		xs := tensor.New(tensor.Float32, batch, 32)
		xs.Fill(1)
		if _, err := cl.Step(iter,
			map[string]map[string]*tensor.Tensor{"worker0": {"x": xs}},
			map[string][]string{"ps0": {"sink"}}); err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if u := cl.Server("worker0").Arena.Stats().InUse; u > peakWorker {
			peakWorker = u
		}
		if u := cl.Server("ps0").Arena.Stats().InUse; u > peakPS {
			peakPS = u
		}
	}
	// Bound: a handful of in-flight buffers of the largest batch
	// (23x32 float32 ≈ 3 KB), not hundreds.
	const bound = 64 << 10
	if peakWorker > bound {
		t.Errorf("worker arena peaked at %d bytes (leak?)", peakWorker)
	}
	if peakPS > bound {
		t.Errorf("ps arena peaked at %d bytes (leak?)", peakPS)
	}
	// After the run, occupancy must be near zero (only the last couple of
	// iterations' buffers may still be deferred).
	if u := cl.Server("ps0").Arena.Stats().InUse; u > 16<<10 {
		t.Errorf("ps arena still holds %d bytes after the run", u)
	}
}

// TestRegionCountBounded: the §3.4 argument for arena registration —
// the number of registered regions must not grow with iterations.
func TestRegionCountBounded(t *testing.T) {
	losses, cl := trainCluster(t, RDMA, 2, 3)
	defer cl.Close()
	_ = losses
	before := cl.Server("worker0").Dev.RegionCount()
	// Burn more iterations on a fresh identical cluster and compare.
	losses2, cl2 := trainCluster(t, RDMA, 2, 12)
	defer cl2.Close()
	_ = losses2
	after := cl2.Server("worker0").Dev.RegionCount()
	if after != before {
		t.Errorf("region count grew with iterations: %d -> %d", before, after)
	}
}

// TestRebuildEdgesKeepsRegionCount: an edge rebuild (the recovery path)
// must free every region the previous setup round registered. A coalescing
// cluster exercises the batch slots and their reuse acks; any per-round
// registration outside the edge-region list would grow the counts here.
func TestRebuildEdgesKeepsRegionCount(t *testing.T) {
	b, _ := buildPSTraining(t, 2, 1, 8, 12, 4, 0.2)
	cl, err := Launch(b, Config{Kind: RDMA, ArenaBytes: 1 << 20,
		Transfer: rdma.TransferOpts{CoalesceThreshold: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	counts := func() map[string]int {
		out := make(map[string]int)
		for task, srv := range cl.serversSnapshot() {
			out[task] = srv.Dev.RegionCount()
		}
		return out
	}
	before := counts()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := cl.rebuildEdges(); err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
	}
	for task, n := range counts() {
		if n != before[task] {
			t.Errorf("%s: %d regions after %d rebuilds, %d before", task, n, rounds, before[task])
		}
	}
}

// TestSteadyStatePSStepAllocations: §3.4's premise is that after the first
// mini-batch every allocation repeats. Past the tracing iteration and one
// warm-up, a 2-worker PS step recycles every cold output and writes every
// hot one into its staging slot, so its heap allocation stays under a fixed
// bound far below the model's gradient bytes — while the tracing policy
// still promotes the same sites, the same transfers go zero-copy, and the
// ps and ring planes still agree to the bit.
func TestSteadyStatePSStepAllocations(t *testing.T) {
	const warm, steps = 3, 20
	// Without recycling a step allocated ~800 KB (activations and
	// gradients); what remains is per-transfer bookkeeping, ~24 KB.
	const bytesPerStepBound = 128 << 10
	mcfg := MLPConfig{Workers: 2, PSCount: 1, Batch: 16, In: 256, Hidden: 256, Classes: 16, LR: 0.1, Topology: "ps"}
	job, err := BuildMLPTraining(mcfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Launch(job.Builder, rdmaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := job.InitAll(cl); err != nil {
		t.Fatal(err)
	}
	feeds := job.SyntheticDataset(7)
	fetches := make(map[string][]string)
	for k, task := range job.WorkerTasks {
		fetches[task] = []string{job.LossName(k)}
	}
	var losses []float32
	step := func(iter int) {
		out, err := cl.Step(iter, feeds, fetches)
		if err != nil {
			t.Fatalf("ps step %d: %v", iter, err)
		}
		var sum float32
		for k, task := range job.WorkerTasks {
			sum += out[task][job.LossName(k)].Float32s()[0]
		}
		losses = append(losses, sum/float32(len(job.WorkerTasks)))
	}
	zeroCopy := func() (n int64) {
		for _, s := range cl.MetricsSnapshot() {
			n += s.ZeroCopyOps
		}
		return n
	}
	for iter := 0; iter < warm; iter++ {
		step(iter)
	}
	zc0 := zeroCopy()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for iter := warm; iter < warm+steps; iter++ {
		step(iter)
	}
	runtime.ReadMemStats(&m1)
	perStep := (m1.TotalAlloc - m0.TotalAlloc) / steps
	t.Logf("steady-state PS step: %d B, %d objects allocated", perStep, (m1.Mallocs-m0.Mallocs)/steps)
	if perStep > bytesPerStepBound {
		t.Errorf("steady-state PS step allocates %d B, want <= %d", perStep, bytesPerStepBound)
	}

	// Recycling must not change placement: tracing promotes the four
	// gradient sites of each worker, and all 16 sends of a step (8 gradients
	// up, 8 staged variables down) leave their staging slots without a copy.
	hot := 0
	for _, srv := range cl.serversSnapshot() {
		hot += srv.Policy.HotSites()
	}
	if hot != 8 {
		t.Errorf("tracing promoted %d allocation sites, want 8", hot)
	}
	if got := (zeroCopy() - zc0) / steps; got != 16 {
		t.Errorf("%d zero-copy sends per step, want 16", got)
	}

	ring := mcfg
	ring.Topology = "ring"
	ringLosses, _ := runMLPTopology(t, ring, rdmaTestConfig(), warm+steps)
	for i := range losses {
		if math.Float32bits(losses[i]) != math.Float32bits(ringLosses[i]) {
			t.Fatalf("step %d: ps loss %v, ring loss %v", i, losses[i], ringLosses[i])
		}
	}
}
