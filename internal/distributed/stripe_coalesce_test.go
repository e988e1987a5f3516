package distributed

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// launchTransferTraining launches runTransferTraining's cluster with its
// variables initialized and returns it with a step function that reports
// the mean worker loss. The caller closes the cluster.
func launchTransferTraining(t *testing.T, cfg Config, psCount int) (*Cluster, func(iter int) (float32, error)) {
	t.Helper()
	const workers, batch, in, classes = 2, 8, 12, 4
	b, workerTasks := buildPSTraining(t, workers, psCount, batch, in, classes, 0.2)
	cl, err := Launch(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	return cl, func(iter int) (float32, error) {
		out, err := cl.Step(iter, feeds, fetches)
		if err != nil {
			return 0, err
		}
		var sum float32
		for k, task := range workerTasks {
			sum += out[task][fmt.Sprintf("loss%d", k)].Float32s()[0]
		}
		return sum / workers, nil
	}
}

// runTransferTraining is runPSChaosTraining with a configurable PS count:
// psCount=1 places both variables on ps0, so the per-pair coalesce groups
// carry multiple sub-messages per batch. Seeds match the other helpers, so
// runs with equal psCount are bit-comparable across transfer configs.
func runTransferTraining(t *testing.T, cfg Config, psCount, iters int,
	afterLaunch func(*Cluster)) ([]float32, []float32, []float32, map[string]metrics.CommSnapshot, error) {
	t.Helper()
	cl, step := launchTransferTraining(t, cfg, psCount)
	defer cl.Close()
	if afterLaunch != nil {
		afterLaunch(cl)
	}
	var losses []float32
	for iter := 0; iter < iters; iter++ {
		loss, err := step(iter)
		if err != nil {
			return losses, nil, nil, cl.MetricsSnapshot(), err
		}
		losses = append(losses, loss)
	}
	wT, err := cl.VarTensor("w")
	if err != nil {
		t.Fatal(err)
	}
	biasT, err := cl.VarTensor("bias")
	if err != nil {
		t.Fatal(err)
	}
	w := append([]float32(nil), wT.Float32s()...)
	bias := append([]float32(nil), biasT.Float32s()...)
	return losses, w, bias, cl.MetricsSnapshot(), nil
}

// TestStripedCoalescedTrainingParity: striping, coalescing, and both
// combined must train bit-identically to the plain RDMA mechanism — same
// losses, same final variables — while the metrics prove the new paths
// actually ran (multiple lanes used; batches flushed).
func TestStripedCoalescedTrainingParity(t *testing.T) {
	base := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer:    rdma.TransferOpts{Deadline: 8 * time.Second},
	}
	const psCount, steps = 1, 12
	refLosses, refW, refBias, _, err := runTransferTraining(t, base, psCount, steps, nil)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	// In the combined variant the threshold sits between the two payload
	// sizes (bias 16B, w 192B) so the same run exercises both mechanisms:
	// bias edges coalesce, w edges stripe. At 256 everything would coalesce
	// and striping would (correctly) never engage.
	variants := []struct {
		name              string
		stripes, coalesce int
	}{
		{"striped", 4, 0},
		{"coalesced", 0, 256},
		{"striped+coalesced", 4, 100},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			cfg.Transfer.Stripes = v.stripes
			cfg.Transfer.CoalesceThreshold = v.coalesce
			losses, w, bias, ms, err := runTransferTraining(t, cfg, psCount, steps, nil)
			if err != nil {
				t.Fatalf("%s run: %v", v.name, err)
			}
			for i := range refLosses {
				if losses[i] != refLosses[i] {
					t.Fatalf("loss[%d] = %v, baseline %v: transfer path changed the numbers", i, losses[i], refLosses[i])
				}
			}
			for i := range refW {
				if w[i] != refW[i] {
					t.Fatalf("w[%d] = %v, baseline %v", i, w[i], refW[i])
				}
			}
			for i := range refBias {
				if bias[i] != refBias[i] {
					t.Fatalf("bias[%d] = %v, baseline %v", i, bias[i], refBias[i])
				}
			}
			var striped, flushes, msgs int64
			maxLanes := 0
			for _, s := range ms {
				striped += s.StripedTransfers
				flushes += s.CoalesceFlushes
				msgs += s.CoalescedMessages
				if l := s.ActiveLanes(); l > maxLanes {
					maxLanes = l
				}
			}
			if v.stripes > 1 {
				if striped == 0 {
					t.Error("striping enabled but no striped transfers counted")
				}
				if maxLanes < 2 {
					t.Errorf("striping enabled but at most %d lane active", maxLanes)
				}
			}
			if v.coalesce > 0 {
				if flushes == 0 {
					t.Error("coalescing enabled but no batches flushed")
				}
				if msgs < flushes {
					t.Errorf("%d coalesced messages over %d flushes", msgs, flushes)
				}
			} else if flushes != 0 {
				t.Errorf("coalescing disabled but %d batches flushed", flushes)
			}
		})
	}

	// At threshold 256 every edge coalesces. A warmed step then copies each
	// member twice: the sender stages it into the batch, and the receiver
	// copies it out of the batch slot. So each task's MemCopies grows by the
	// members it sends plus the members it receives.
	t.Run("coalesced copies", func(t *testing.T) {
		cfg := base
		cfg.Transfer.CoalesceThreshold = 256
		cl, step := launchTransferTraining(t, cfg, psCount)
		defer cl.Close()
		want := make(map[string]int64)
		for _, e := range cl.Result().Edges {
			want[e.SrcTask]++
			want[e.DstTask]++
		}
		if _, err := step(0); err != nil {
			t.Fatal(err)
		}
		prev := cl.MetricsSnapshot()
		for iter := 1; iter < 4; iter++ {
			if _, err := step(iter); err != nil {
				t.Fatal(err)
			}
			cur := cl.MetricsSnapshot()
			for task, n := range want {
				if got := cur[task].MemCopies - prev[task].MemCopies; got != n {
					t.Errorf("step %d: %s copies grew by %d, want %d (members sent + received)", iter, task, got, n)
				}
			}
			prev = cur
		}
	})
}

// TestCoalescedLostAckRetried drops one coalesced batch's reuse ack. The
// receiver re-posts it from a backoff timer, so no goroutine waits on it
// meanwhile, and the next warmed step completes inside its deadline.
func TestCoalescedLostAckRetried(t *testing.T) {
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer: rdma.TransferOpts{
			Deadline:          8 * time.Second,
			CoalesceThreshold: 256, // every edge coalesces
			// The retry waits out the step that lost the ack, so the stack
			// dump below is taken with no step running. Nothing else in
			// that step waits on a backoff: no fault but this one is
			// injected, and every flush finds its slot acked (below).
			Backoff: time.Second,
		},
	}
	cl, step := launchTransferTraining(t, cfg, 1)
	defer cl.Close()
	for iter := 0; iter < 3; iter++ {
		if _, err := step(iter); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until every batch of step 2 is acked: no ack of an earlier step
	// is left for the hook to drop, and no flush of step 3 finds its slot
	// busy.
	acked := func() bool {
		for _, task := range cl.Result().Tasks {
			for _, g := range cl.Server(task).Env.sendGroups {
				if !g.sender.PollReusable() {
					return false
				}
			}
		}
		return true
	}
	for start := time.Now(); !acked(); time.Sleep(time.Millisecond) {
		if time.Since(start) > cfg.Transfer.Deadline {
			t.Fatal("step 2's batches were never acked")
		}
	}
	// With every edge coalesced, the only flag-word writes are reuse acks.
	var acks atomic.Int32
	var stepDone atomic.Bool
	retried := make(chan string, 1)
	cl.Fabric().SetHooks(rdma.Hooks{TransferFault: func(op rdma.Op, size int) error {
		if op != rdma.OpWrite || size != rdma.FlagWordSize {
			return nil
		}
		if acks.Add(1) == 1 {
			return fmt.Errorf("drop one batch ack: %w", rdma.ErrInjected)
		}
		if stepDone.Load() {
			buf := make([]byte, 1<<20)
			select {
			case retried <- string(buf[:runtime.Stack(buf, true)]):
			default:
			}
		}
		return nil
	}})
	defer cl.Fabric().SetHooks(rdma.Hooks{})
	if _, err := step(3); err != nil {
		t.Fatalf("step that lost the ack: %v", err)
	}
	stepDone.Store(true)
	select {
	case stacks := <-retried:
		if strings.Contains(stacks, "created by repro/internal/distributed.") {
			t.Errorf("a distributed goroutine was alive while the ack was retried:\n%s", stacks)
		}
	case <-time.After(cfg.Transfer.Deadline):
		t.Fatal("the lost ack was never re-posted")
	}
	start := time.Now()
	if _, err := step(4); err != nil {
		t.Fatalf("step after the lost ack: %v", err)
	}
	if d := time.Since(start); d > cfg.Transfer.Deadline {
		t.Fatalf("step after the lost ack took %v (deadline %v)", d, cfg.Transfer.Deadline)
	}
}

// TestStripedCoalescedTrainingSurvivesDrops: the combined striped+coalesced
// configuration must retry through random transfer drops with no corruption:
// bit-identical to its own fault-free run.
func TestStripedCoalescedTrainingSurvivesDrops(t *testing.T) {
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer: rdma.TransferOpts{
			Deadline:          8 * time.Second,
			Stripes:           4,
			CoalesceThreshold: 100, // bias coalesces, w stripes — both paths under fire
		},
	}
	const psCount, steps = 1, 15
	cleanLosses, cleanW, cleanBias, _, err := runTransferTraining(t, cfg, psCount, steps, nil)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	var inj *chaos.Injector
	losses, w, bias, ms, err := runTransferTraining(t, cfg, psCount, steps, func(cl *Cluster) {
		inj = chaos.New(chaos.Plan{
			Seed:     23,
			DropRate: 0.12,
			Metrics:  cl.Server("worker0").Metrics,
		})
		inj.Install(cl.Fabric())
		inj.Start()
	})
	defer inj.Stop()
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if got := inj.Counters().Injected[chaos.Drop]; got == 0 {
		t.Fatal("no drops injected; chaos exercised nothing")
	}
	var retries int64
	for _, s := range ms {
		retries += s.Retries
	}
	if retries == 0 {
		t.Error("no retries recorded despite injected drops")
	}
	for i := range cleanLosses {
		if losses[i] != cleanLosses[i] {
			t.Fatalf("loss[%d] = %v under drops, %v clean", i, losses[i], cleanLosses[i])
		}
	}
	for i := range cleanW {
		if w[i] != cleanW[i] {
			t.Fatalf("w[%d] = %v under drops, %v clean", i, w[i], cleanW[i])
		}
	}
	for i := range cleanBias {
		if bias[i] != cleanBias[i] {
			t.Fatalf("bias[%d] = %v under drops, %v clean", i, bias[i], cleanBias[i])
		}
	}
}

// TestStripedCoalescedPartitionFailsTyped: a never-healing partition under
// the combined configuration fails the step with the typed edge timeout (or
// the executor's progress timeout on the starved side) within the deadline.
func TestStripedCoalescedPartitionFailsTyped(t *testing.T) {
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 2 * time.Second,
		Transfer: rdma.TransferOpts{
			Deadline:          1 * time.Second,
			Stripes:           4,
			CoalesceThreshold: 256,
		},
	}
	start := time.Now()
	_, _, _, _, err := runTransferTraining(t, cfg, 1, 20, func(cl *Cluster) {
		cl.Fabric().Partition("ps0", "worker0")
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("training succeeded across a never-healing partition")
	}
	if !errors.Is(err, ErrEdgeTimeout) && !errors.Is(err, exec.ErrPollTimeout) {
		t.Fatalf("err = %v, want ErrEdgeTimeout or exec.ErrPollTimeout", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("typed failure took %v; deadlines were 1s/2s", elapsed)
	}
	t.Logf("failed as expected after %v: %v", elapsed, err)
}
