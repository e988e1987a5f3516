package distributed

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Tests for the elastic-recovery tentpole: the lease failure detector, the
// in-place checkpoint restore, and the end-to-end crash → detect → restart
// → rollback → replay acceptance run.

// launchPSRecovery launches the standard 2-worker/2-PS training cluster
// with the same init and dataset seeds as trainCluster (so runs are
// bit-comparable) but leaves stepping to the caller.
func launchPSRecovery(t *testing.T, cfg Config) (*Cluster,
	map[string]map[string]*tensor.Tensor, map[string][]string, []string) {
	t.Helper()
	const workers, psCount, batch, in, classes = 2, 2, 8, 12, 4
	b, workerTasks := buildPSTraining(t, workers, psCount, batch, in, classes, 0.2)
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
	return cl, feeds, fetches, workerTasks
}

func meanLoss(t *testing.T, out map[string]map[string]*tensor.Tensor, workerTasks []string) float32 {
	t.Helper()
	var sum float32
	for k, task := range workerTasks {
		sum += out[task][fmt.Sprintf("loss%d", k)].Float32s()[0]
	}
	return sum / float32(len(workerTasks))
}

// TestHeartbeatDetectorExpiresAndResumes drives the detector directly
// against raw devices: healthy peers renew their leases, a closed device's
// lease expires exactly once within the configured timeout, and a resumed
// lease (after the peer re-registers) picks back up without a false expiry.
func TestHeartbeatDetectorExpiresAndResumes(t *testing.T) {
	f := rdma.NewFabric()
	echo := func(from string, req []byte) ([]byte, error) { return req, nil }
	mkTask := func(name string) *rdma.Device {
		d, err := rdma.CreateDevice(f, rdma.Config{Endpoint: name})
		if err != nil {
			t.Fatal(err)
		}
		d.RegisterRPC(leasePingMethod, echo)
		return d
	}
	t1 := mkTask("t1")
	t2 := mkTask("t2")
	defer t1.Close()

	cfg := HeartbeatConfig{Period: 3 * time.Millisecond, Timeout: 24 * time.Millisecond}
	met := &metrics.Recovery{}
	expired := make(chan string, 4)
	det, err := newHeartbeatDetector(f, []string{"t1", "t2"}, cfg, met,
		func(task string) { expired <- task })
	if err != nil {
		t.Fatal(err)
	}
	det.start()
	defer det.stop()

	// Healthy phase: leases renew, nothing expires.
	time.Sleep(10 * cfg.Period)
	select {
	case task := <-expired:
		t.Fatalf("lease for %s expired with both peers healthy", task)
	default:
	}
	if met.Snapshot().Heartbeats == 0 {
		t.Fatal("no heartbeats recorded in the healthy phase")
	}

	// Kill t2: its lease must expire within the timeout (plus ping slack).
	killed := time.Now()
	t2.Close()
	select {
	case task := <-expired:
		if task != "t2" {
			t.Fatalf("expired %s, want t2", task)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lease never expired after peer death")
	}
	if elapsed := time.Since(killed); elapsed > cfg.Timeout+20*cfg.Period+250*time.Millisecond {
		t.Errorf("detection took %v, lease timeout is %v", elapsed, cfg.Timeout)
	}
	if !det.confirmDead("t2", 0) {
		t.Error("confirmDead(t2) false after expiry")
	}

	// Expire-once: further silence must not re-fire.
	time.Sleep(3 * cfg.Timeout)
	select {
	case task := <-expired:
		t.Fatalf("lease for %s expired twice in one outage", task)
	default:
	}
	if n := met.Snapshot().LeaseExpiries; n != 1 {
		t.Errorf("LeaseExpiries = %d, want 1", n)
	}

	// Rejoin: restart t2 under the same endpoint, resume its lease.
	det.suspend("t2")
	t2 = mkTask("t2")
	defer t2.Close()
	det.resume("t2")
	before := met.Snapshot().Heartbeats
	time.Sleep(10 * cfg.Period)
	select {
	case task := <-expired:
		t.Fatalf("false expiry for %s after rejoin", task)
	default:
	}
	if met.Snapshot().Heartbeats <= before {
		t.Error("no heartbeats from the rejoined peer")
	}
}

// TestLoadCheckpointRestoresRegisteredStorage is the in-place-restore
// regression (the bug class: a restore that allocates fresh tensors
// silently detaches variables from their RDMA-registered staging slots, so
// every later weight push degrades to a copy). The restored variable must
// keep the exact backing array — the staging slot's — and a post-restore
// step must still send zero-copy.
func TestLoadCheckpointRestoresRegisteredStorage(t *testing.T) {
	cl, feeds, fetches, _ := launchPSRecovery(t, Config{Kind: RDMA, ArenaBytes: 1 << 20})
	step := func(iter int) {
		t.Helper()
		if _, err := cl.Step(iter, feeds, fetches); err != nil {
			t.Fatal(err)
		}
	}
	for iter := 0; iter < 3; iter++ {
		step(iter)
	}

	wBefore, err := cl.VarTensor("w")
	if err != nil {
		t.Fatal(err)
	}
	saved := wBefore.Clone()
	savedPtr := &wBefore.Bytes()[0]

	// The zero-copy analysis must have placed w inside ps0's sender staging
	// slot; identity against the slot pins "registered storage", not just
	// "same tensor as before".
	srv := cl.Server("ps0")
	slot, staged := srv.stagings["w"]
	if !staged {
		t.Fatal("w has no staging slot on ps0")
	}
	if &slot.tensor.Bytes()[0] != savedPtr {
		t.Fatal("w is not living in its staging slot before the restore")
	}

	var snap bytes.Buffer
	if err := cl.SaveCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	// Train past the snapshot so the restore has real work to undo.
	step(3)
	step(4)
	if wBefore.Equal(saved) {
		t.Fatal("training did not change w; restore would be vacuous")
	}

	if err := cl.LoadCheckpoint(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	wAfter, err := cl.VarTensor("w")
	if err != nil {
		t.Fatal(err)
	}
	if &wAfter.Bytes()[0] != savedPtr {
		t.Error("restore moved w out of its registered staging slot")
	}
	if !wAfter.Equal(saved) {
		t.Error("restore did not recover the checkpointed values")
	}

	// A further step must push weights without bouncing through a copy.
	zcBefore := totalZeroCopy(cl)
	step(5)
	if totalZeroCopy(cl) <= zcBefore {
		t.Error("post-restore step recorded no zero-copy sends: slot aliasing broken")
	}
}

func totalZeroCopy(cl *Cluster) int64 {
	var n int64
	for _, s := range cl.MetricsSnapshot() {
		n += s.ZeroCopyOps
	}
	return n
}

// TestEnableRecoveryRejectsRPCMechanisms: the detector and teardown act on
// fabric devices, which RPC-based mechanisms do not have.
func TestEnableRecoveryRejectsRPCMechanisms(t *testing.T) {
	cl, _, _, _ := launchPSRecovery(t, Config{
		Kind: GRPCTCP, ArenaBytes: 1 << 20,
		RingCfg: transport.RingConfig{Slots: 16, SlotSize: 8 << 10},
	})
	if _, err := cl.EnableRecovery(RecoveryConfig{}); !errors.Is(err, ErrSetup) {
		t.Fatalf("EnableRecovery on grpc-tcp: %v, want ErrSetup", err)
	}
}

// recoveryAcceptanceRun runs the 20-step PS training under Recovery.Run,
// optionally crashing a task ~1ms into step 10 via the chaos crash script.
// Striping and coalescing are on, so the rebuilt edges must bring back the
// multi-QP lanes and coalesce groups too.
func recoveryAcceptanceRun(t *testing.T, crashTask string) (map[int]float32, []float32, []float32, metrics.RecoverySnapshot) {
	t.Helper()
	const steps = 20
	cl, feeds, fetches, workerTasks := launchPSRecovery(t, Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer: rdma.TransferOpts{
			Deadline:          8 * time.Second,
			Stripes:           2,
			CoalesceThreshold: 256,
		},
	})
	rec, err := cl.EnableRecovery(RecoveryConfig{
		Heartbeat:       HeartbeatConfig{Period: 5 * time.Millisecond},
		CheckpointEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var inj *chaos.Injector
	if crashTask != "" {
		inj = chaos.New(chaos.Plan{
			Seed:   17,
			Script: []chaos.Event{{At: time.Millisecond, Crash: crashTask}},
			Crash:  func(task string) { _ = cl.KillTask(task) },
		})
		inj.Install(cl.Fabric())
		t.Cleanup(inj.Stop)
	}
	losses := make(map[int]float32)
	onStep := func(iter int, out map[string]map[string]*tensor.Tensor) {
		losses[iter] = meanLoss(t, out, workerTasks)
		if iter == 9 && inj != nil {
			// Arm the kill so it strikes ~1ms into step 10.
			inj.Start()
		}
	}
	if err := rec.Run(steps, feeds, fetches, onStep); err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	if inj != nil {
		if n := inj.Counters().Injected[chaos.CrashEvent]; n != 1 {
			t.Errorf("crash events injected = %d, want 1", n)
		}
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
	return losses, w, bias, rec.Metrics()
}

// TestRecoveryWorkerCrashBitIdentical is the acceptance test: a worker is
// killed mid-step-10 of a 20-step run; the lease detector notices, the
// recovery driver restarts it, rolls back to the step-10 checkpoint, and
// replays — and the final variables are bit-identical to an uninterrupted
// run with the same seeds.
func TestRecoveryWorkerCrashBitIdentical(t *testing.T) {
	cleanLosses, cleanW, cleanBias, cleanRS := recoveryAcceptanceRun(t, "")
	// A loaded host may stall a lease ping; recovery refutes that expiry
	// and replays, but nothing in the clean run may be taken for a crash.
	if cleanRS.Rejoins != 0 || cleanRS.LeaseExpiries != cleanRS.FalseSuspicions {
		t.Fatalf("clean run saw a crash: expiries=%d (refuted %d) rejoins=%d",
			cleanRS.LeaseExpiries, cleanRS.FalseSuspicions, cleanRS.Rejoins)
	}
	if cleanRS.Checkpoints < 4 { // steps 0, 5, 10, 15
		t.Fatalf("clean run took %d checkpoints, want >= 4", cleanRS.Checkpoints)
	}

	losses, w, bias, rs := recoveryAcceptanceRun(t, "worker1")

	// The crash was detected by the lease detector, the task rejoined, and
	// state was rolled back — not merely survived by retries.
	if rs.LeaseExpiries < 1 {
		t.Error("no lease expiry: crash was not detected by the heartbeat detector")
	}
	if rs.Rejoins < 1 {
		t.Error("no rejoin recorded")
	}
	if rs.Rollbacks < 1 {
		t.Error("no rollback recorded")
	}
	if rs.Recoveries < 1 {
		t.Error("no completed recovery recorded")
	}

	// Bit-identity of the whole final state and the loss trajectory.
	if len(w) != len(cleanW) || len(bias) != len(cleanBias) {
		t.Fatal("variable shapes diverged")
	}
	for i := range w {
		if w[i] != cleanW[i] {
			t.Fatalf("w[%d] = %v after recovery, %v clean (replay not bit-identical)", i, w[i], cleanW[i])
		}
	}
	for i := range bias {
		if bias[i] != cleanBias[i] {
			t.Fatalf("bias[%d] = %v after recovery, %v clean", i, bias[i], cleanBias[i])
		}
	}
	for iter, l := range cleanLosses {
		if got, ok := losses[iter]; !ok || got != l {
			t.Fatalf("loss[%d] = %v after recovery, %v clean", iter, losses[iter], l)
		}
	}
}

// TestRecoveryPSCrashRestoresStagedVariable kills a parameter server — the
// hard case: its variables live inside sender staging slots, so the
// rollback must recreate them inside the NEW incarnation's registered
// slots, not on the heap. Bit-identity of the final weights proves
// placement and values both came back.
func TestRecoveryPSCrashRestoresStagedVariable(t *testing.T) {
	_, cleanW, cleanBias, _ := recoveryAcceptanceRun(t, "")
	_, w, bias, rs := recoveryAcceptanceRun(t, "ps1")
	if rs.Recoveries < 1 || rs.Rejoins < 1 {
		t.Fatalf("recovery did not run: %+v", rs)
	}
	for i := range w {
		if w[i] != cleanW[i] {
			t.Fatalf("w[%d] diverged after ps crash recovery", i)
		}
	}
	for i := range bias {
		if bias[i] != cleanBias[i] {
			t.Fatalf("bias[%d] diverged after ps crash recovery", i)
		}
	}
}

// TestRecoveryRefutedSuspicionReplaysBitIdentical stalls one lease ping of
// a live worker past the lease timeout mid-run — what a loaded host does to
// the detector. Every device stays alive, so recovery must treat the
// expiry as a refuted suspicion: resume the lease, roll back to the
// checkpoint and replay, finishing bit-identical to a clean run.
func TestRecoveryRefutedSuspicionReplaysBitIdentical(t *testing.T) {
	cleanLosses, cleanW, cleanBias, _ := recoveryAcceptanceRun(t, "")

	const steps = 20
	cl, feeds, fetches, workerTasks := launchPSRecovery(t, Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer: rdma.TransferOpts{
			Deadline:          8 * time.Second,
			Stripes:           2,
			CoalesceThreshold: 256,
		},
	})
	hb := HeartbeatConfig{Period: 5 * time.Millisecond}
	rec, err := cl.EnableRecovery(RecoveryConfig{Heartbeat: hb, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	timeout := 10 * hb.Period // the detector's default lease
	// Armed after step 9: worker1 answers its next lease ping only after
	// three lease timeouts, once. Until the detector expires the lease,
	// every transfer is slowed so a step is in flight when it does.
	var armed, stalled atomic.Bool
	cl.Server("worker1").Dev.RegisterRPC(leasePingMethod, func(from string, req []byte) ([]byte, error) {
		if armed.Load() && stalled.CompareAndSwap(false, true) {
			time.Sleep(3 * timeout)
		}
		return req, nil
	})
	cl.Fabric().SetHooks(rdma.Hooks{PathDelay: func(rdma.Op, int, string, string) time.Duration {
		if armed.Load() && rec.Metrics().LeaseExpiries == 0 {
			return 4 * timeout
		}
		return 0
	}})
	losses := make(map[int]float32)
	onStep := func(iter int, out map[string]map[string]*tensor.Tensor) {
		losses[iter] = meanLoss(t, out, workerTasks)
		if iter == 9 {
			armed.Store(true)
		}
	}
	if err := rec.Run(steps, feeds, fetches, onStep); err != nil {
		t.Fatalf("run with a stalled lease ping failed: %v", err)
	}
	rs := rec.Metrics()
	if rs.LeaseExpiries != 1 || rs.FalseSuspicions != 1 {
		t.Fatalf("lease expiries = %d, false suspicions = %d; want 1 and 1", rs.LeaseExpiries, rs.FalseSuspicions)
	}
	if rs.Rollbacks != 1 || rs.Rejoins != 0 {
		t.Fatalf("rollbacks = %d, rejoins = %d; want 1 rollback and no restart", rs.Rollbacks, rs.Rejoins)
	}
	wT, err := cl.VarTensor("w")
	if err != nil {
		t.Fatal(err)
	}
	biasT, err := cl.VarTensor("bias")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range wT.Float32s() {
		if v != cleanW[i] {
			t.Fatalf("w[%d] = %v after the replay, %v clean", i, v, cleanW[i])
		}
	}
	for i, v := range biasT.Float32s() {
		if v != cleanBias[i] {
			t.Fatalf("bias[%d] = %v after the replay, %v clean", i, v, cleanBias[i])
		}
	}
	for iter, l := range cleanLosses {
		if got, ok := losses[iter]; !ok || got != l {
			t.Fatalf("loss[%d] = %v after the replay, %v clean", iter, losses[iter], l)
		}
	}
}
