package distributed

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/comm"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// Sharded-PS suite: partitioning gradient buckets across K shard tasks —
// flat or through two-level hierarchical aggregation — must not change a
// single bit versus -topology=ps, and shard faults must behave exactly
// like PS faults: chaos heals to identical bits, a crashed shard replays
// bit-identically, a dead shard fails typed and bounded.

// TestShardedPSParityShardWorkerSweep is the headline sharded property
// sweep: shard counts 1..4 crossed with worker counts 2..8, unaligned
// tensor dimensions, and a bucket capacity forcing one bucket per variable
// — every combination bit-identical to the single-PS reference.
func TestShardedPSParityShardWorkerSweep(t *testing.T) {
	const steps = 2
	for workers := 2; workers <= 8; workers++ {
		base := MLPConfig{Workers: workers, PSCount: 2, Batch: 4,
			In: 7, Hidden: 5, Classes: 3, LR: 0.3}
		ps := base
		ps.Topology = "ps"
		refLosses, refVars := runMLPTopology(t, ps, rdmaTestConfig(), steps)
		for shards := 1; shards <= 4; shards++ {
			cfg := base
			cfg.Topology = "sharded-ps"
			cfg.PSShards = shards
			cfg.BucketBytes = 64 // one bucket per variable -> all shards used
			commCfg := rdmaTestConfig()
			commCfg.Transfer.Stripes = 2
			commCfg.Transfer.CoalesceThreshold = 96
			losses, vars := runMLPTopology(t, cfg, commCfg, steps)
			assertTopologyParity(t, fmt.Sprintf("sharded-ps/k=%d/w=%d", shards, workers),
				refLosses, refVars, losses, vars)
		}
	}
}

// TestShardedPSHierarchicalParity proves the two-level fold is the same
// binary-add sequence: aggregator group sizes that split the workers
// evenly, raggedly, and into a single group must all reproduce the flat
// PS bits.
func TestShardedPSHierarchicalParity(t *testing.T) {
	const steps = 3
	base := MLPConfig{Workers: 6, PSCount: 1, Batch: 4,
		In: 7, Hidden: 5, Classes: 3, LR: 0.3}
	ps := base
	ps.Topology = "ps"
	refLosses, refVars := runMLPTopology(t, ps, rdmaTestConfig(), steps)
	for _, aggGroup := range []int{2, 3, 4, 6} {
		cfg := base
		cfg.Topology = "sharded-ps"
		cfg.PSShards = 2
		cfg.AggGroup = aggGroup
		cfg.BucketBytes = 64
		losses, vars := runMLPTopology(t, cfg, rdmaTestConfig(), steps)
		assertTopologyParity(t, fmt.Sprintf("sharded-ps/agg=%d", aggGroup),
			refLosses, refVars, losses, vars)
	}
}

// TestShardedPSParityBucketSizes sweeps bucket capacities that pack
// everything into one bucket, split mid-model, and isolate every variable,
// under coalesce thresholds putting the shard edges on the eager,
// coalesced, and striped paths.
func TestShardedPSParityBucketSizes(t *testing.T) {
	const steps = 2
	base := MLPConfig{Workers: 3, PSCount: 1, Batch: 4, In: 8, Hidden: 8, Classes: 4, LR: 0.25}
	ps := base
	ps.Topology = "ps"
	refLosses, refVars := runMLPTopology(t, ps, rdmaTestConfig(), steps)

	for _, bucketBytes := range []int{16, 300, 1 << 20} {
		for _, coalesce := range []int{0, 128, 1 << 20} {
			cfg := base
			cfg.Topology = "sharded-ps"
			cfg.PSShards = 2
			cfg.BucketBytes = bucketBytes
			commCfg := rdmaTestConfig()
			commCfg.Transfer.CoalesceThreshold = coalesce
			losses, vars := runMLPTopology(t, cfg, commCfg, steps)
			assertTopologyParity(t, fmt.Sprintf("sharded-ps/bucket=%d/coalesce=%d", bucketBytes, coalesce),
				refLosses, refVars, losses, vars)
		}
	}
}

// TestShardMapDeterministicBalance pins the builder-visible shard layout:
// the deterministic greedy map spreads the MLP's four single-variable
// buckets across the shards least-loaded-first, every bucket lands on a
// valid shard, and the map round-trips through its wire form.
func TestShardMapDeterministicBalance(t *testing.T) {
	cfg := MLPConfig{Workers: 2, Batch: 4, In: 7, Hidden: 5, Classes: 3, LR: 0.1,
		Topology: "sharded-ps", PSShards: 2, BucketBytes: 64}
	job, err := BuildMLPTraining(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if job.ShardMap == nil {
		t.Fatal("sharded job has no shard map")
	}
	if len(job.ShardMap.Assign) != len(job.Buckets) {
		t.Fatalf("map covers %d buckets, layout has %d", len(job.ShardMap.Assign), len(job.Buckets))
	}
	used := make(map[int]bool)
	for bi, s := range job.ShardMap.Assign {
		if s < 0 || s >= cfg.PSShards {
			t.Fatalf("bucket %d on shard %d of %d", bi, s, cfg.PSShards)
		}
		used[s] = true
	}
	if len(used) != cfg.PSShards {
		t.Fatalf("only %d of %d shards used for %d buckets", len(used), cfg.PSShards, len(job.Buckets))
	}
	rt, err := comm.UnmarshalShardMap(job.ShardMap.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for bi := range job.ShardMap.Assign {
		if rt.Assign[bi] != job.ShardMap.Assign[bi] || rt.Bytes[bi] != job.ShardMap.Bytes[bi] {
			t.Fatalf("bucket %d round-trips to shard %d/%dB, want %d/%dB",
				bi, rt.Assign[bi], rt.Bytes[bi], job.ShardMap.Assign[bi], job.ShardMap.Bytes[bi])
		}
	}
}

func shardedChaosMLPConfig() MLPConfig {
	return MLPConfig{Workers: 3, Batch: 8, In: 12, Hidden: 10, Classes: 4,
		LR: 0.2, Topology: "sharded-ps", PSShards: 2, BucketBytes: 64}
}

// runShardedChaosTraining mirrors runRingChaosTraining for the sharded-PS
// plane: same seeds, caller-installed fault injection, per-step losses,
// final shared-variable values, metrics, and the first step error.
func runShardedChaosTraining(t *testing.T, cfg Config, steps int,
	afterLaunch func(*Cluster)) ([]float32, map[string][]float32, map[string]metrics.CommSnapshot, error) {
	t.Helper()
	mcfg := shardedChaosMLPConfig()
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
	vars := make(map[string][]float32)
	for _, name := range mlpLogicalVars {
		vt, err := cl.VarTensor(name)
		if err != nil {
			t.Fatal(err)
		}
		vars[name] = append([]float32(nil), vt.Float32s()...)
	}
	return losses, vars, cl.MetricsSnapshot(), nil
}

// TestShardedPSChaosBitIdenticalUnderFaults: a 20-step sharded run under
// seeded drops, delays, write reordering, and a healing worker<->shard
// partition must complete through bounded retries with the exact bits of
// a fault-free run.
func TestShardedPSChaosBitIdenticalUnderFaults(t *testing.T) {
	const steps = 20
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer:    rdma.TransferOpts{Deadline: 8 * time.Second, Stripes: 2},
	}
	cleanLosses, cleanVars, _, err := runShardedChaosTraining(t, cfg, steps, nil)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}

	var inj *chaos.Injector
	losses, vars, ms, err := runShardedChaosTraining(t, cfg, steps, func(cl *Cluster) {
		inj = chaos.New(chaos.Plan{
			Seed:        23,
			DropRate:    0.08,
			DelayRate:   0.10,
			MaxDelay:    2 * time.Millisecond,
			ReorderRate: 0.05,
			Script: []chaos.Event{
				{At: 5 * time.Millisecond, A: "worker0", B: "ps1", Heal: 100 * time.Millisecond},
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
	if c.Injected[chaos.PartitionEvent] < 2 {
		t.Errorf("shard partition fired %d events, want apply+heal", c.Injected[chaos.PartitionEvent])
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
		for i := range vars[name] {
			if vars[name][i] != cleanVars[name][i] {
				t.Fatalf("%s[%d] = %v under chaos, %v clean", name, i, vars[name][i], cleanVars[name][i])
			}
		}
	}
}

// TestShardedPSNeverHealingShardPartitionFailsTyped: cutting a worker off
// one shard for good starves that shard's bucket folds; the step must fail
// with the typed edge timeout (or the executor's poll timeout), bounded by
// the configured deadlines — never hang half-sharded.
func TestShardedPSNeverHealingShardPartitionFailsTyped(t *testing.T) {
	cfg := Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 2 * time.Second,
		Transfer:    rdma.TransferOpts{Deadline: 1 * time.Second},
	}
	start := time.Now()
	_, _, ms, err := runShardedChaosTraining(t, cfg, 20, func(cl *Cluster) {
		cl.Fabric().Partition("worker1", "ps1")
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("sharded training succeeded across a never-healing shard partition")
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
	t.Logf("sharded step failed as expected after %v: %v", elapsed, err)
}

// shardedRecoveryRun mirrors ringRecoveryRun over the sharded-PS plane,
// optionally killing a shard task ~1ms into step 10 — mid-fold, while
// workers' packed buckets are in flight toward it.
func shardedRecoveryRun(t *testing.T, crashTask string) (map[int]float32, map[string][]float32, metrics.RecoverySnapshot) {
	t.Helper()
	const steps = 20
	mcfg := shardedChaosMLPConfig()
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
		t.Fatalf("sharded recovery run failed: %v", err)
	}
	if inj != nil {
		if n := inj.Counters().Injected[chaos.CrashEvent]; n != 1 {
			t.Errorf("crash events injected = %d, want 1", n)
		}
	}
	vars := make(map[string][]float32)
	for _, name := range mlpLogicalVars {
		vt, err := cl.VarTensor(name)
		if err != nil {
			t.Fatal(err)
		}
		vars[name] = append([]float32(nil), vt.Float32s()...)
	}
	return losses, vars, rec.Metrics()
}

// TestRecoveryShardedPSCrashBitIdentical: a shard killed mid-step is
// detected, restarted under its old endpoint, its partition of the shared
// variables rolled back from the checkpoint, and the replayed run finishes
// bit-identical to an uninterrupted one.
func TestRecoveryShardedPSCrashBitIdentical(t *testing.T) {
	cleanLosses, cleanVars, cleanRS := shardedRecoveryRun(t, "")
	// A loaded host may stall a lease ping; recovery refutes that expiry
	// and replays, but nothing in the clean run may be taken for a crash.
	if cleanRS.Rejoins != 0 || cleanRS.LeaseExpiries != cleanRS.FalseSuspicions {
		t.Fatalf("clean run saw a crash: expiries=%d (refuted %d) rejoins=%d",
			cleanRS.LeaseExpiries, cleanRS.FalseSuspicions, cleanRS.Rejoins)
	}

	losses, vars, rs := shardedRecoveryRun(t, "ps1")
	if rs.LeaseExpiries < 1 {
		t.Error("no lease expiry: shard crash was not detected")
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
		for i := range cleanVars[name] {
			if vars[name][i] != cleanVars[name][i] {
				t.Fatalf("%s[%d] = %v after recovery, %v clean (replay not bit-identical)",
					name, i, vars[name][i], cleanVars[name][i])
			}
		}
	}
}
