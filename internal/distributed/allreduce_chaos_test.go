package distributed

import (
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// Chaos coverage for the collective planes: the ring's 2(N-1)-hop chains
// ride the same retry/striping/coalescing machinery as the PS edges, so
// seeded faults must retry through to the SAME bits, partitions must fail
// typed and bounded, and a mid-all-reduce crash must recover bit-
// identically.

func ringChaosMLPConfig() MLPConfig {
	return MLPConfig{Workers: 3, Batch: 8, In: 12, Hidden: 10, Classes: 4,
		LR: 0.2, Topology: "ring", BucketBytes: 256}
}

// runRingChaosTraining mirrors runPSChaosTraining for the ring plane:
// same seeds, caller-installed fault injection, per-step losses, final
// replica values, metrics, and the first step error (not fatal — the
// partition test wants it).
func runRingChaosTraining(t *testing.T, cfg Config, steps int,
	afterLaunch func(*Cluster)) ([]float32, map[string][][]float32, map[string]metrics.CommSnapshot, error) {
	t.Helper()
	mcfg := ringChaosMLPConfig()
	job, err := BuildMLPTraining(mcfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Launch(job.Builder, cfg)
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
	if afterLaunch != nil {
		afterLaunch(cl)
	}
	var losses []float32
	for iter := 0; iter < steps; iter++ {
		out, err := cl.Step(iter, feeds, fetches)
		if err != nil {
			return losses, nil, cl.MetricsSnapshot(), err
		}
		var sum float32
		for k, task := range job.WorkerTasks {
			sum += out[task][job.LossName(k)].Float32s()[0]
		}
		losses = append(losses, sum/float32(len(job.WorkerTasks)))
	}
	vars := make(map[string][][]float32)
	for _, name := range mlpLogicalVars {
		for w := 0; w < mcfg.Workers; w++ {
			vt, err := cl.VarTensor(job.VarName(name, w))
			if err != nil {
				t.Fatal(err)
			}
			vars[name] = append(vars[name], append([]float32(nil), vt.Float32s()...))
		}
	}
	return losses, vars, cl.MetricsSnapshot(), nil
}

// TestRingChaosBitIdenticalUnderFaults: a 20-step ring run under seeded
// drops, delays, and flag-first write reordering (striping is the
// reorder-hardened path) must complete through bounded retries with the
// exact bits of a fault-free run.
func TestRingChaosBitIdenticalUnderFaults(t *testing.T) {
	const steps = 20
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer:    rdma.TransferOpts{Deadline: 8 * time.Second, Stripes: 2},
	}
	cleanLosses, cleanVars, _, err := runRingChaosTraining(t, cfg, steps, nil)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}

	var inj *chaos.Injector
	losses, vars, ms, err := runRingChaosTraining(t, cfg, steps, func(cl *Cluster) {
		inj = chaos.New(chaos.Plan{
			Seed:        23,
			DropRate:    0.08,
			DelayRate:   0.10,
			MaxDelay:    2 * time.Millisecond,
			ReorderRate: 0.05,
			Script: []chaos.Event{
				{At: 5 * time.Millisecond, A: "worker0", B: "worker1", Heal: 100 * time.Millisecond},
			},
			Metrics: cl.Server("worker0").Metrics,
		})
		inj.Install(cl.Fabric())
		inj.Start()
	})
	defer inj.Stop()
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if len(losses) != steps {
		t.Fatalf("completed %d/%d steps", len(losses), steps)
	}

	c := inj.Counters()
	if c.Injected[chaos.Drop] == 0 {
		t.Error("no transfer drops injected")
	}
	if c.Injected[chaos.Delay] == 0 {
		t.Error("no delays injected")
	}
	if c.Injected[chaos.Reorder] == 0 {
		t.Error("no write reordering injected")
	}
	if c.Injected[chaos.PartitionEvent] < 2 {
		t.Errorf("ring-edge partition fired %d events, want apply+heal", c.Injected[chaos.PartitionEvent])
	}
	var retries, timeouts int64
	for _, s := range ms {
		retries += s.Retries
		timeouts += s.Timeouts
	}
	if retries == 0 {
		t.Error("no retries recorded despite injected faults")
	}
	if timeouts != 0 {
		t.Errorf("%d edges timed out; all faults should heal within the budget", timeouts)
	}

	for i := range losses {
		if losses[i] != cleanLosses[i] {
			t.Fatalf("loss[%d] = %v under chaos, %v clean (corruption or nondeterminism)", i, losses[i], cleanLosses[i])
		}
	}
	for _, name := range mlpLogicalVars {
		for w := range vars[name] {
			for i := range vars[name][w] {
				if vars[name][w][i] != cleanVars[name][w][i] {
					t.Fatalf("%s/w%d[%d] = %v under chaos, %v clean", name, w, i,
						vars[name][w][i], cleanVars[name][w][i])
				}
			}
		}
	}
}

// TestRingNeverHealingPartitionFailsTyped: cutting one ring edge for good
// starves every segment chain crossing it; the step must fail with the
// typed edge timeout (or the executor's poll timeout), bounded by the
// configured deadlines — never hang the collective.
func TestRingNeverHealingPartitionFailsTyped(t *testing.T) {
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 2 * time.Second,
		Transfer:    rdma.TransferOpts{Deadline: 1 * time.Second},
	}
	start := time.Now()
	_, _, ms, err := runRingChaosTraining(t, cfg, 20, func(cl *Cluster) {
		cl.Fabric().Partition("worker1", "worker2")
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ring training succeeded across a never-healing neighbor partition")
	}
	if !errors.Is(err, ErrEdgeTimeout) && !errors.Is(err, exec.ErrPollTimeout) {
		t.Fatalf("err = %v, want ErrEdgeTimeout or exec.ErrPollTimeout", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("step failure took %v; deadlines were 1s/2s", elapsed)
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
	t.Logf("ring step failed as expected after %v: %v", elapsed, err)
}

// ringRecoveryRun mirrors recoveryAcceptanceRun over the ring plane: 20
// steps under Recovery.Run with striping and coalescing on, optionally
// killing a worker ~1ms into step 10 — mid-all-reduce, since every step is
// one continuous collective.
func ringRecoveryRun(t *testing.T, crashTask string) (map[int]float32, map[string][][]float32, metrics.RecoverySnapshot) {
	t.Helper()
	const steps = 20
	mcfg := ringChaosMLPConfig()
	job, err := BuildMLPTraining(mcfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Launch(job.Builder, Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer: rdma.TransferOpts{
			Deadline:          8 * time.Second,
			Stripes:           2,
			CoalesceThreshold: 256,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := job.InitAll(cl); err != nil {
		t.Fatal(err)
	}
	feeds := job.SyntheticDataset(7)
	fetches := make(map[string][]string)
	for k, task := range job.WorkerTasks {
		fetches[task] = []string{job.LossName(k)}
	}
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
		var sum float32
		for k, task := range job.WorkerTasks {
			sum += out[task][job.LossName(k)].Float32s()[0]
		}
		losses[iter] = sum / float32(len(job.WorkerTasks))
		if iter == 9 && inj != nil {
			inj.Start() // strike ~1ms into step 10
		}
	}
	if err := rec.Run(steps, feeds, fetches, onStep); err != nil {
		t.Fatalf("ring recovery run failed: %v", err)
	}
	if inj != nil {
		if n := inj.Counters().Injected[chaos.CrashEvent]; n != 1 {
			t.Errorf("crash events injected = %d, want 1", n)
		}
	}
	vars := make(map[string][][]float32)
	for _, name := range mlpLogicalVars {
		for w := 0; w < mcfg.Workers; w++ {
			vt, err := cl.VarTensor(job.VarName(name, w))
			if err != nil {
				t.Fatal(err)
			}
			vars[name] = append(vars[name], append([]float32(nil), vt.Float32s()...))
		}
	}
	return losses, vars, rec.Metrics()
}

// TestRecoveryRingCrashBitIdentical: a worker killed mid-all-reduce is
// detected by the lease detector, restarted, rolled back to the last
// checkpoint — including its replica variables, which only exist on that
// worker — and the replayed run finishes bit-identical to an uninterrupted
// one.
func TestRecoveryRingCrashBitIdentical(t *testing.T) {
	cleanLosses, cleanVars, cleanRS := ringRecoveryRun(t, "")
	// A loaded host may stall a lease ping; recovery refutes that expiry
	// and replays, but nothing in the clean run may be taken for a crash.
	if cleanRS.Rejoins != 0 || cleanRS.LeaseExpiries != cleanRS.FalseSuspicions {
		t.Fatalf("clean run saw a crash: expiries=%d (refuted %d) rejoins=%d",
			cleanRS.LeaseExpiries, cleanRS.FalseSuspicions, cleanRS.Rejoins)
	}

	losses, vars, rs := ringRecoveryRun(t, "worker1")
	if rs.LeaseExpiries < 1 {
		t.Error("no lease expiry: crash was not detected")
	}
	if rs.Rejoins < 1 || rs.Rollbacks < 1 || rs.Recoveries < 1 {
		t.Errorf("recovery did not complete: rejoins=%d rollbacks=%d recoveries=%d",
			rs.Rejoins, rs.Rollbacks, rs.Recoveries)
	}
	for iter, l := range cleanLosses {
		if got, ok := losses[iter]; !ok || got != l {
			t.Fatalf("loss[%d] = %v after recovery, %v clean", iter, losses[iter], l)
		}
	}
	for _, name := range mlpLogicalVars {
		for w := range cleanVars[name] {
			for i := range cleanVars[name][w] {
				if vars[name][w][i] != cleanVars[name][w][i] {
					t.Fatalf("%s/w%d[%d] = %v after recovery, %v clean (replay not bit-identical)",
						name, w, i, vars[name][w][i], cleanVars[name][w][i])
				}
			}
		}
	}
}
