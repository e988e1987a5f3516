package distributed

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// QP-mux and lossy-fabric coverage at the cluster layer: training through a
// bounded QP-slot pool must be bit-identical to direct per-peer QPs while
// the per-device QP count stays at O(slots), and training over a
// chunk-dropping fabric must recover every tensor via per-tensor selective
// retransmit — same bits, retransmit counters moving, no connection-level
// replay.

// TestMuxTrainingParity: a slot pool far smaller than the peer count forces
// constant LRU eviction and lease contention, yet training is bit-identical
// to the direct configuration and the QP state bound holds on every device.
func TestMuxTrainingParity(t *testing.T) {
	base := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer:    rdma.TransferOpts{Deadline: 8 * time.Second},
	}
	const workers, steps = 3, 12
	refLosses, refCl, _ := runPSTrainingN(t, base, workers, steps)
	refW, err := refCl.VarTensor("w")
	if err != nil {
		t.Fatal(err)
	}
	refBias, err := refCl.VarTensor("bias")
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.QPSlots = 1 // ps0 talks to 3 workers over a single slot
	cfg.QPsPerPeer = 2
	losses, cl, ms := runPSTrainingN(t, cfg, workers, steps)
	for i := range refLosses {
		if losses[i] != refLosses[i] {
			t.Fatalf("loss[%d] = %v muxed, %v direct", i, losses[i], refLosses[i])
		}
	}
	w, err := cl.VarTensor("w")
	if err != nil {
		t.Fatal(err)
	}
	bias, err := cl.VarTensor("bias")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range refW.Float32s() {
		if w.Float32s()[i] != v {
			t.Fatalf("w[%d] = %v muxed, %v direct", i, w.Float32s()[i], v)
		}
	}
	for i, v := range refBias.Float32s() {
		if bias.Float32s()[i] != v {
			t.Fatalf("bias[%d] = %v muxed, %v direct", i, bias.Float32s()[i], v)
		}
	}
	// The bound: a device's live QPs never exceed slots × QPsPerPeer even
	// though it exchanged tensors with more peers than it has slots.
	for _, task := range []string{"ps0", "worker0", "worker1", "worker2"} {
		srv := cl.Server(task)
		if got, max := srv.Dev.QPCount(), cfg.QPSlots*cfg.QPsPerPeer; got > max {
			t.Errorf("%s holds %d QPs, cap %d", task, got, max)
		}
		if got := srv.Dev.PeerCount(); got > cfg.QPSlots {
			t.Errorf("%s bound to %d peers, slots %d", task, got, cfg.QPSlots)
		}
	}
	var evictions int64
	for _, s := range ms {
		evictions += s.QPEvictions
	}
	if evictions == 0 {
		t.Error("no LRU evictions despite peers > slots; mux was not exercised")
	}
	if st := cl.Server("ps0").Mux.Stats(); st.Leases == 0 {
		t.Error("ps0 mux recorded no leases")
	}
}

// Test64TaskMuxTrainingUnderRace is the real-bytes scale gate (named in
// scripts/verify.sh): 64 tasks train through an 8-slot mux under the race
// detector. The PS device would hold 63 QP groups direct; the mux keeps it
// at 8 while every gradient and update still lands (steps complete with
// finite losses), and lease exhaustion resolves via the ErrQPBusy backoff
// without burning fault-retry budgets.
func Test64TaskMuxTrainingUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("64-task scale gate skipped in -short")
	}
	const workers, slots = 63, 8
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  8 << 20,
		PollTimeout: 120 * time.Second,
		QPSlots:     slots,
		QPsPerPeer:  2,
		Transfer:    rdma.TransferOpts{Deadline: 60 * time.Second},
	}
	losses, cl, ms := runPSTrainingN(t, cfg, workers, 2)
	for i, l := range losses {
		if l != l || l <= 0 { // NaN or nonsense
			t.Fatalf("loss[%d] = %v", i, l)
		}
	}
	for _, task := range []string{"ps0", "worker0", "worker31"} {
		srv := cl.Server(task)
		if got, max := srv.Dev.QPCount(), slots*cfg.QPsPerPeer; got > max {
			t.Errorf("%s holds %d QPs, cap %d", task, got, max)
		}
	}
	var evictions, busy int64
	for _, s := range ms {
		evictions += s.QPEvictions
		busy += s.QPBusy
	}
	if evictions == 0 {
		t.Error("63 peers over 8 slots evicted nothing; mux was bypassed")
	}
	t.Logf("64 tasks: %d evictions, %d busy rejections", evictions, busy)
}

// runPSTrainingN trains the softmax PS job with a configurable worker count
// and returns the per-step mean losses, the (closed-on-cleanup) cluster for
// device-level assertions, and the final metrics.
func runPSTrainingN(t *testing.T, cfg Config, workers, iters int) ([]float32, *Cluster, map[string]metrics.CommSnapshot) {
	t.Helper()
	const batch, in, classes = 4, 8, 3
	b, workerTasks := buildPSTraining(t, workers, 1, batch, in, classes, 0.1)
	cl, err := Launch(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	rng := rand.New(rand.NewSource(99))
	if err := cl.InitVariable("w", func(tt *tensor.Tensor) { tensor.GlorotInit(tt, rng) }); err != nil {
		t.Fatal(err)
	}
	if err := cl.InitVariable("bias", nil); err != nil {
		t.Fatal(err)
	}
	feeds := make(map[string]map[string]*tensor.Tensor)
	fetches := make(map[string][]string)
	dataRng := rand.New(rand.NewSource(7))
	for k, task := range workerTasks {
		x := tensor.New(tensor.Float32, batch, in)
		labels := tensor.New(tensor.Int32, batch)
		tensor.RandomUniform(x, dataRng, 1)
		tensor.RandomLabels(labels, dataRng, classes)
		feeds[task] = map[string]*tensor.Tensor{
			fmt.Sprintf("x%d", k):      x,
			fmt.Sprintf("labels%d", k): labels,
		}
		fetches[task] = []string{fmt.Sprintf("loss%d", k)}
	}
	var losses []float32
	for iter := 0; iter < iters; iter++ {
		out, err := cl.Step(iter, feeds, fetches)
		if err != nil {
			t.Fatalf("step %d: %v", iter, err)
		}
		var sum float32
		for k, task := range workerTasks {
			sum += out[task][fmt.Sprintf("loss%d", k)].Float32s()[0]
		}
		losses = append(losses, sum/float32(workers))
	}
	return losses, cl, cl.MetricsSnapshot()
}

// TestLossyTrainingBitIdentical: seeded per-chunk drops on a lossy fabric
// must be recovered entirely by per-tensor selective retransmit — the run
// produces the exact bits of its lossless twin, the retransmit/NACK
// counters move, and the whole-transfer retry counter stays at zero (no
// connection-level replay). Covered per topology: plain PS, striped +
// coalesced PS, and ring all-reduce.
func TestLossyTrainingBitIdentical(t *testing.T) {
	t.Run("ps", func(t *testing.T) {
		cfg := Config{
			Kind:        RDMA,
			ArenaBytes:  1 << 20,
			PollTimeout: 30 * time.Second,
			LossyFabric: true,
			Transfer:    rdma.TransferOpts{Deadline: 8 * time.Second},
		}
		lossyPSRun(t, cfg, 0.05)
	})
	t.Run("striped+coalesced", func(t *testing.T) {
		cfg := Config{
			Kind:        RDMA,
			ArenaBytes:  1 << 20,
			PollTimeout: 30 * time.Second,
			LossyFabric: true,
			Transfer: rdma.TransferOpts{
				Deadline:          8 * time.Second,
				Stripes:           4,
				CoalesceThreshold: 100, // bias coalesces (lossless path), w stripes (lossy)
			},
		}
		lossyPSRun(t, cfg, 0.10)
	})
	t.Run("ring", func(t *testing.T) {
		cfg := Config{
			Kind:        RDMA,
			ArenaBytes:  1 << 20,
			PollTimeout: 30 * time.Second,
			LossyFabric: true,
			Transfer:    rdma.TransferOpts{Deadline: 8 * time.Second, Stripes: 2},
		}
		const steps = 10
		cleanLosses, cleanVars, _, err := runRingChaosTraining(t, cfg, steps, nil)
		if err != nil {
			t.Fatalf("lossless ring run: %v", err)
		}
		var inj *chaos.Injector
		losses, vars, ms, err := runRingChaosTraining(t, cfg, steps, func(cl *Cluster) {
			inj = chaos.New(chaos.Plan{
				Seed:          31,
				ChunkDropRate: 0.05,
				Metrics:       cl.Server("worker0").Metrics,
			})
			inj.Install(cl.Fabric())
			inj.Start()
		})
		defer inj.Stop()
		if err != nil {
			t.Fatalf("lossy ring run: %v", err)
		}
		assertLossyRecovered(t, inj, ms)
		for i := range cleanLosses {
			if losses[i] != cleanLosses[i] {
				t.Fatalf("loss[%d] = %v under chunk loss, %v lossless", i, losses[i], cleanLosses[i])
			}
		}
		for _, name := range mlpLogicalVars {
			for w := range vars[name] {
				for i := range vars[name][w] {
					if vars[name][w][i] != cleanVars[name][w][i] {
						t.Fatalf("%s/w%d[%d] = %v under chunk loss, %v lossless",
							name, w, i, vars[name][w][i], cleanVars[name][w][i])
					}
				}
			}
		}
	})
}

// lossyPSRun trains the 2-worker PS job twice with the given config —
// lossless, then with seeded chunk drops — and asserts bit-identity plus
// the selective-retransmit counter signature.
func lossyPSRun(t *testing.T, cfg Config, dropRate float64) {
	t.Helper()
	const psCount, steps = 1, 12
	cleanLosses, cleanW, cleanBias, _, err := runTransferTraining(t, cfg, psCount, steps, nil)
	if err != nil {
		t.Fatalf("lossless run: %v", err)
	}
	var inj *chaos.Injector
	losses, w, bias, ms, err := runTransferTraining(t, cfg, psCount, steps, func(cl *Cluster) {
		inj = chaos.New(chaos.Plan{
			Seed:          31,
			ChunkDropRate: dropRate,
			Metrics:       cl.Server("worker0").Metrics,
		})
		inj.Install(cl.Fabric())
		inj.Start()
	})
	defer inj.Stop()
	if err != nil {
		t.Fatalf("lossy run: %v", err)
	}
	assertLossyRecovered(t, inj, ms)
	for i := range cleanLosses {
		if losses[i] != cleanLosses[i] {
			t.Fatalf("loss[%d] = %v under chunk loss, %v lossless", i, losses[i], cleanLosses[i])
		}
	}
	for i := range cleanW {
		if w[i] != cleanW[i] {
			t.Fatalf("w[%d] = %v under chunk loss, %v lossless", i, w[i], cleanW[i])
		}
	}
	for i := range cleanBias {
		if bias[i] != cleanBias[i] {
			t.Fatalf("bias[%d] = %v under chunk loss, %v lossless", i, bias[i], cleanBias[i])
		}
	}
}

// assertLossyRecovered checks the counter signature of selective
// retransmit: chunks were dropped, NACKs asked for exactly the missing
// ones, and no whole-transfer retry (connection-level replay) ever fired.
func assertLossyRecovered(t *testing.T, inj *chaos.Injector, ms map[string]metrics.CommSnapshot) {
	t.Helper()
	if got := inj.Counters().Injected[chaos.ChunkDrop]; got == 0 {
		t.Fatal("no chunks dropped; the lossy path was not exercised")
	}
	var retransmits, nacks, retries int64
	for _, s := range ms {
		retransmits += s.RetransmitChunks
		nacks += s.NacksSent
		retries += s.Retries
	}
	if retransmits == 0 {
		t.Error("chunks were dropped but none selectively retransmitted")
	}
	if nacks == 0 {
		t.Error("chunks were dropped but no NACK was counted")
	}
	if retries != 0 {
		t.Errorf("%d whole-transfer retries; loss must be recovered per-chunk, not by replay", retries)
	}
}

// TestLossyTensorBlackholeFailsTyped: dropping 100% of one tensor's chunks
// (and only that tensor's) must fail the step with the typed edge timeout,
// bounded by the configured deadline — the NACK loop re-requests forever,
// the sender re-sends forever, and the deadline converts that into
// ErrTimeout instead of a hang or a connection replay.
func TestLossyTensorBlackholeFailsTyped(t *testing.T) {
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 3 * time.Second,
		LossyFabric: true,
		Transfer:    rdma.TransferOpts{Deadline: 1 * time.Second},
	}
	start := time.Now()
	_, _, _, ms, err := runTransferTraining(t, cfg, 1, 5, func(cl *Cluster) {
		// Blackhole the first static edge's tensor; every other edge runs
		// lossless, proving the targeting is semantic (per tensor id).
		var target uint64
		for _, e := range cl.Result().Edges {
			if e.Sig.Static {
				target = cl.Server(e.DstTask).Env.edges[e.ID].tensorID()
				break
			}
		}
		if target == 0 {
			t.Fatal("no static edge to blackhole")
		}
		inj := chaos.New(chaos.Plan{
			Seed:          5,
			ChunkDropRate: 1.0,
			TargetTensor:  target,
		})
		inj.Install(cl.Fabric())
		inj.Start()
		t.Cleanup(inj.Stop)
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("training succeeded with one tensor's chunks 100% dropped")
	}
	if !errors.Is(err, ErrEdgeTimeout) && !errors.Is(err, exec.ErrPollTimeout) {
		t.Fatalf("err = %v, want ErrEdgeTimeout or exec.ErrPollTimeout", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("typed failure took %v; deadlines were 1s/3s", elapsed)
	}
	if errors.Is(err, ErrEdgeTimeout) {
		var timeouts int64
		for _, s := range ms {
			timeouts += s.Timeouts
		}
		if timeouts == 0 {
			t.Error("edge timed out but no timeout was counted")
		}
	}
	t.Logf("blackholed tensor failed typed after %v: %v", elapsed, err)
}

// TestLossyStepAbortThenRecover: a step aborted mid-loss (blackholed tensor
// times out) must not poison later iterations — once the blackhole lifts,
// training resumes in the same cluster, and the cancellation contract holds
// under loss: no retransmitted chunk from the aborted epoch lands in a
// later iteration's slot (the epoch guard discards it; corruption would
// surface as NaN losses or failed steps below).
func TestLossyStepAbortThenRecover(t *testing.T) {
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 5 * time.Second,
		LossyFabric: true,
		Transfer:    rdma.TransferOpts{Deadline: 1 * time.Second},
	}
	const batch, in, classes = 8, 12, 4
	b, workerTasks := buildPSTraining(t, 2, 1, batch, in, classes, 0.2)
	cl, err := Launch(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(99))
	if err := cl.InitVariable("w", func(tt *tensor.Tensor) { tensor.GlorotInit(tt, rng) }); err != nil {
		t.Fatal(err)
	}
	if err := cl.InitVariable("bias", nil); err != nil {
		t.Fatal(err)
	}
	feeds := make(map[string]map[string]*tensor.Tensor)
	fetches := make(map[string][]string)
	dataRng := rand.New(rand.NewSource(7))
	for k, task := range workerTasks {
		x := tensor.New(tensor.Float32, batch, in)
		labels := tensor.New(tensor.Int32, batch)
		tensor.RandomUniform(x, dataRng, 1)
		tensor.RandomLabels(labels, dataRng, classes)
		feeds[task] = map[string]*tensor.Tensor{
			fmt.Sprintf("x%d", k):      x,
			fmt.Sprintf("labels%d", k): labels,
		}
		fetches[task] = []string{fmt.Sprintf("loss%d", k)}
	}

	// Two clean steps, then blackhole one tensor and watch a step die typed,
	// then lift the blackhole and finish.
	for iter := 0; iter < 2; iter++ {
		if _, err := cl.Step(iter, feeds, fetches); err != nil {
			t.Fatalf("pre-loss step %d: %v", iter, err)
		}
	}
	var target uint64
	for _, e := range cl.Result().Edges {
		if e.Sig.Static {
			target = cl.Server(e.DstTask).Env.edges[e.ID].tensorID()
			break
		}
	}
	inj := chaos.New(chaos.Plan{Seed: 5, ChunkDropRate: 1.0, TargetTensor: target})
	inj.Install(cl.Fabric())
	inj.Start()
	if _, err := cl.Step(2, feeds, fetches); err == nil {
		t.Fatal("step succeeded through a blackholed tensor")
	} else if !errors.Is(err, ErrEdgeTimeout) && !errors.Is(err, exec.ErrPollTimeout) {
		t.Fatalf("aborted step err = %v, want ErrEdgeTimeout or exec.ErrPollTimeout", err)
	}
	inj.Stop() // heal: hooks cleared, chunks flow again

	for iter := 3; iter < 8; iter++ {
		out, err := cl.Step(iter, feeds, fetches)
		if err != nil {
			t.Fatalf("post-recovery step %d: %v", iter, err)
		}
		for k, task := range workerTasks {
			l := out[task][fmt.Sprintf("loss%d", k)].Float32s()[0]
			if l != l || l <= 0 {
				t.Fatalf("post-recovery step %d: loss[%s] = %v (stale chunk corrupted a live slot?)",
					iter, task, l)
			}
		}
	}
}
