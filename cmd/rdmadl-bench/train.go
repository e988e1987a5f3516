package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/distributed"
	"repro/internal/rdma"
)

// goldenStep is the iteration whose per-worker loss bits are verified. The
// repository's contract is bit-identity from a seed, across topologies.
const goldenStep = 50

// golden.json holds the loss bits at goldenStep for the default seed, per
// training workload: {"train_ps_cpu": {"1": [bits per worker]}, ...}.
// Regenerate with `rdmadl-bench golden` after a change that is meant to
// alter the arithmetic.
//
//go:embed golden.json
var goldenJSON []byte

type goldenTable map[string]map[string][]uint32

func loadGolden() (goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

type trainSpec struct {
	name string
	cfg  distributed.MLPConfig
	// refTopology is the other communication plane the loss bits are
	// cross-checked against.
	refTopology string
	// wire installs the NIC timeline.
	wire bool
}

var trainPSCPU = trainSpec{
	name: "train_ps_cpu",
	cfg: distributed.MLPConfig{Workers: 2, PSCount: 1, Batch: 32, In: 512, Hidden: 512,
		Classes: 64, LR: 0.05, Topology: "ps"},
	refTopology: "ring",
}

var trainRingWire = trainSpec{
	name: "train_ring_wire",
	cfg: distributed.MLPConfig{Workers: 4, PSCount: 1, Batch: 8, In: 512, Hidden: 512,
		Classes: 64, LR: 0.05, Topology: "ring"},
	refTopology: "ps",
	wire:        true,
}

func runTrainPSCPU(ctx *runCtx) (*result, error)    { return runTrain(ctx, trainPSCPU) }
func runTrainRingWire(ctx *runCtx) (*result, error) { return runTrain(ctx, trainRingWire) }

// lossCapture records the per-worker loss bits of one iteration.
type lossCapture struct {
	job  *distributed.MLPJob
	at   int
	bits []uint32
}

// check verifies every step's losses are finite and captures step `at`.
func (c *lossCapture) check(iter int, out feedMap) error {
	bits := make([]uint32, len(c.job.WorkerTasks))
	for k, task := range c.job.WorkerTasks {
		t := out[task][c.job.LossName(k)]
		if t == nil {
			return fmt.Errorf("worker %d returned no loss", k)
		}
		v := t.Float32s()[0]
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("worker %d loss is %v", k, v)
		}
		bits[k] = math.Float32bits(v)
	}
	if iter == c.at {
		c.bits = bits
	}
	return nil
}

// startTrain builds, launches and initialises one training cluster.
func startTrain(ts trainSpec, topology string, wire bool, seed int64,
	tr *tracer, parent *span, st *stageMS) (*clusterInst, *lossCapture, error) {
	cfg := ts.cfg
	cfg.Topology = topology
	sp := tr.begin(parent, "distributed", "BuildMLPTraining")
	job, err := distributed.BuildMLPTraining(cfg, seed)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(parent, "distributed", "Launch")
	t := time.Now()
	cl, err := distributed.Launch(job.Builder, clusterConfig(rdma.TransferOpts{}, tr))
	st.launch += msSince(t)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(parent, "distributed", "InitAll")
	t = time.Now()
	err = job.InitAll(cl)
	st.init += msSince(t)
	sp.End()
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	if wire {
		cl.Fabric().SetHooks(rdma.Hooks{PathDelay: newNICTimeline(time.Now).delay})
	}
	feeds := job.SyntheticDataset(seed + 1)
	fetches := make(fetchMap)
	for k, task := range job.WorkerTasks {
		fetches[task] = []string{job.LossName(k)}
	}
	capture := &lossCapture{job: job, at: goldenStep}
	inst := &clusterInst{
		cl:      cl,
		tasks:   job.WorkerTasks,
		buckets: len(job.Buckets),
		loop: &stepLoop{cl: cl, fetches: fetches, check: capture.check,
			feeds: func(int) feedMap { return feeds }},
	}
	return inst, capture, nil
}

// referenceLoss trains the same model from the same seed over the other
// communication plane, without the wire model, and returns the loss bits at
// goldenStep. Every plane folds gradients in the same order, so the bits
// must match the measured run's.
func referenceLoss(ts trainSpec, seed int64) ([]uint32, error) {
	inst, capture, err := startTrain(ts, ts.refTopology, false, seed, nil, nil, &stageMS{})
	if err != nil {
		return nil, err
	}
	defer inst.cl.Close()
	if err := inst.loop.warm(goldenStep + 1); err != nil {
		return nil, err
	}
	return capture.bits, nil
}

func equalBits(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func trainWorkload(ctx *runCtx, ts trainSpec) *clusterWorkload {
	var capture *lossCapture
	return &clusterWorkload{
		phases: []clusterPhase{{
			name: "steps",
			start: func(tr *tracer, parent *span, st *stageMS) (*clusterInst, error) {
				inst, c, err := startTrain(ts, ts.cfg.Topology, ts.wire, ctx.seed, tr, parent, st)
				capture = c
				return inst, err
			},
		}},
		workPerStep: float64(ts.cfg.Workers * ts.cfg.Batch),
		wireModel:   ts.wire,
		after: func(_ int, inst *clusterInst, _ books, res *result) error {
			// A window too short to reach goldenStep is topped up, untimed.
			if n := goldenStep + 1 - inst.loop.iter; n > 0 && res.Failed == 0 {
				if err := inst.loop.warm(n); err != nil {
					return err
				}
			}
			return nil
		},
		finish: func(res *result) error {
			if res.Failed > 0 {
				return nil // a failed step already made the run incorrect
			}
			want, err := referenceLoss(ts, ctx.seed)
			if err != nil {
				return fmt.Errorf("reference run over %s: %w", ts.refTopology, err)
			}
			if !equalBits(capture.bits, want) {
				res.fail("loss bits at step %d are %08x, the %s plane gives %08x from the same seed",
					goldenStep, capture.bits, ts.refTopology, want)
			}
			golden, err := loadGolden()
			if err != nil {
				return err
			}
			if g, ok := golden[ts.name][strconv.FormatInt(ctx.seed, 10)]; ok && !equalBits(capture.bits, g) {
				res.fail("loss bits at step %d are %08x, golden.json has %08x", goldenStep, capture.bits, g)
			}
			res.Info["loss_step50_worker0"] = float64(math.Float32frombits(capture.bits[0]))
			return nil
		},
	}
}

func runTrain(ctx *runCtx, ts trainSpec) (*result, error) {
	w := trainWorkload(ctx, ts)
	if ctx.trace {
		return w.runTraced(ctx)
	}
	return w.run(ctx)
}

// goldenMain prints golden.json: the loss bits at goldenStep for the default
// seed, trained over each workload's own plane without the wire model (the
// wire model delays transfers and cannot change bits).
func goldenMain() int {
	table := make(goldenTable)
	for _, ts := range []trainSpec{trainPSCPU, trainRingWire} {
		own := ts
		own.refTopology = ts.cfg.Topology
		bits, err := referenceLoss(own, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdmadl-bench: golden %s: %v\n", ts.name, err)
			return 1
		}
		table[ts.name] = map[string][]uint32{"1": bits}
	}
	buf, err := json.MarshalIndent(table, "", " ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdmadl-bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", buf)
	return 0
}
