// Command rdmadl-serve runs the zero-copy inference serving plane on an
// in-process fleet: a trainer-side weight publisher streaming versions into
// each replica's double-buffered banks over one-sided writes, replicas
// atomically swapping to complete versions, and a batching frontend with
// bounded-queue admission control serving a synthetic query load.
//
// Usage:
//
//	rdmadl-serve [-replicas N] [-versions N] [-publish-every DUR]
//	             [-clients N] [-duration DUR] [-batch N] [-max-queue N]
//	             [-crash-demo] [-model] [-obs-addr HOST:PORT]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distributed"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func main() {
	replicas := flag.Int("replicas", 3, "inference replica count")
	versions := flag.Int("versions", 20, "weight versions to publish")
	publishEvery := flag.Duration("publish-every", 20*time.Millisecond, "publication cadence (the trainer's snapshot interval)")
	clients := flag.Int("clients", 8, "concurrent closed-loop query clients")
	batch := flag.Int("batch", 16, "most queries one dispatch carries (each runs as one row)")
	in := flag.Int("in", 32, "model input width")
	hidden := flag.Int("hidden", 64, "model hidden width")
	classes := flag.Int("classes", 8, "model output classes")
	maxQueue := flag.Int("max-queue", 256, "admission queue bound; beyond it queries shed with ErrOverloaded")
	batchWait := flag.Duration("batch-wait", 200*time.Microsecond, "partial-batch linger before dispatch")
	lanes := flag.Int("lanes", 2, "QP lanes striping each bank publication")
	crashDemo := flag.Bool("crash-demo", false, "kill one replica mid-run, let the lease detector evict it, then restart and readmit it")
	model := flag.Bool("model", false, "print the netsim million-user staleness-vs-throughput sweep and exit")
	obsAddr := flag.String("obs-addr", "", "serve live observability HTTP on this address (adds serving counters to /metrics); empty = off")
	flag.Parse()

	if *model {
		printModel(*replicas)
		return
	}
	if *replicas < 1 || *versions < 1 || *clients < 1 {
		fmt.Fprintln(os.Stderr, "rdmadl-serve: -replicas, -versions, -clients must be ≥ 1")
		os.Exit(2)
	}
	if err := run(*replicas, *versions, *publishEvery, *clients, *batch, *in, *hidden, *classes,
		*maxQueue, *batchWait, *lanes, *crashDemo, *obsAddr); err != nil {
		fmt.Fprintf(os.Stderr, "rdmadl-serve: %v\n", err)
		os.Exit(1)
	}
}

// printModel emits the closed-form serving model at the million-user load
// point, the same curve scripts/bench.sh records to BENCH_serve.json.
func printModel(replicas int) {
	cost := netsim.DefaultServeCost(replicas, 256<<20)
	load := netsim.ServeLoad{Users: 1_000_000, ThinkTimeS: 10}
	fmt.Printf("netsim serving model: %d replicas, 256 MB payload, %d users (%.0f QPS offered)\n",
		replicas, load.Users, load.OfferedQPS())
	for _, r := range cost.StalenessSweep(load, []float64{5000, 1000, 500, 200, 100, 50}) {
		fmt.Printf("  %s\n", r)
	}
}

// trainerVars builds the MLP variable store the publisher snapshots.
// Weights are deterministic functions of their indices; each publication
// perturbs them so versions are distinguishable at the replicas.
func trainerVars(in, hidden, classes int) (*exec.VarStore, error) {
	vs := exec.NewVarStore()
	shapes := map[string][]int{
		"w1": {in, hidden}, "b1": {hidden},
		"w2": {hidden, classes}, "b2": {classes},
	}
	for name, dims := range shapes {
		t := tensor.New(tensor.Float32, dims...)
		vals := t.Float32s()
		for i := range vals {
			vals[i] = float32(math.Sin(float64(i)+1) * 0.1)
		}
		if err := vs.Create(name, t); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// perturb nudges every weight — the stand-in for a training step between
// publications.
func perturb(vs *exec.VarStore, step int) {
	for _, name := range []string{"w1", "b1", "w2", "b2"} {
		t, err := vs.VarTensor(name)
		if err != nil {
			continue
		}
		vals := t.Float32s()
		for i := range vals {
			vals[i] += 1e-4 * float32(step%7+1)
		}
	}
}

func run(replicas, versions int, publishEvery time.Duration, clients, batch, in, hidden, classes,
	maxQueue int, batchWait time.Duration, lanes int, crashDemo bool, obsAddr string) error {
	vars, err := trainerVars(in, hidden, classes)
	if err != nil {
		return err
	}
	met := &metrics.Serve{}
	rec := &metrics.Recovery{}
	hists := &metrics.Set{}
	fleet, err := distributed.NewServingFleet(distributed.ServingConfig{
		Replicas: replicas,
		Spec:     serve.MLPForward(batch, in, hidden, classes),
		Vars:     vars,
		Lanes:    lanes,
		MaxQueue: maxQueue, BatchWait: batchWait,
		Heartbeat: distributed.HeartbeatConfig{
			Period: 2 * time.Millisecond, Timeout: 50 * time.Millisecond,
		},
		Metrics: met, Recovery: rec, Hists: hists,
	})
	if err != nil {
		return err
	}
	defer fleet.Close()

	if obsAddr != "" {
		obsSrv := obs.NewServer(obs.Options{
			Serve: func() map[string]metrics.ServeSnapshot {
				return map[string]metrics.ServeSnapshot{"serving": met.Snapshot()}
			},
		})
		addr, err := obsSrv.Start(obsAddr)
		if err != nil {
			return err
		}
		defer obsSrv.Close()
		fmt.Printf("obs: serving http://%s/metrics\n", addr)
	}

	fmt.Printf("fleet: %d replicas, batch=%d, model %d→%d→%d, publish every %v, %d clients\n",
		replicas, batch, in, hidden, classes, publishEvery, clients)

	// First version before queries flow: replicas boot warming and become
	// routable only once a complete version landed.
	if _, err := fleet.Publish(); err != nil {
		return err
	}

	var stop atomic.Bool
	var served, shed, failed atomic.Int64
	var wg sync.WaitGroup
	x := make([]float32, in)
	for i := range x {
		x[i] = 1
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				_, err := fleet.Query(x)
				switch {
				case err == nil:
					served.Add(1)
				case err == serve.ErrOverloaded:
					shed.Add(1)
				default:
					failed.Add(1)
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	crashAt := versions / 2
	for v := 2; v <= versions; v++ {
		time.Sleep(publishEvery)
		perturb(vars, v)
		if _, err := fleet.Publish(); err != nil {
			return err
		}
		if crashDemo && v == crashAt {
			task := "replica0"
			fmt.Printf("crash-demo: killing %s at v%d\n", task, v)
			if err := fleet.KillReplica(task); err != nil {
				return err
			}
			if !fleet.AwaitDead(task, 5*time.Second) {
				return fmt.Errorf("lease never expired for %s", task)
			}
			fmt.Printf("crash-demo: lease expired, %s evicted from routing and publication\n", task)
		}
		if crashDemo && v == crashAt+2 {
			task := "replica0"
			if err := fleet.RestartReplica(task); err != nil {
				return err
			}
			fmt.Printf("crash-demo: %s readmitted at v%d via catch-up republish\n", task, fleet.Version())
		}
	}
	// Let in-flight queries observe the final version, then stop.
	time.Sleep(10 * publishEvery)
	stop.Store(true)
	wg.Wait()

	s := met.Snapshot()
	fmt.Printf("\npublished %d versions (%d bytes), %d republishes, %d bank swaps\n",
		s.WeightPublishes, s.PublishedBytes, s.Republishes, s.BankSwaps)
	fmt.Printf("queries: served=%d shed=%d failed=%d batches=%d routing-rejects=%d\n",
		served.Load(), shed.Load(), failed.Load(), s.ServeBatches, s.RoutingRejects)
	fmt.Printf("staleness: max %d version(s) behind the trainer (bound: 1)\n", s.StalenessVersionsMax)
	if crashDemo {
		rs := rec.Snapshot()
		fmt.Printf("recovery: lease expiries=%d rejoins=%d\n", rs.LeaseExpiries, rs.Rejoins)
	}
	hs := hists.Snapshot()
	if bh, ok := hs.Hists[metrics.HistServeBatchNs]; ok && bh.Count > 0 {
		fmt.Printf("batch latency: mean %.0fns p99<=%dns over %d batches\n",
			bh.Mean(), bh.Quantile(0.99), bh.Count)
	}
	if s.StalenessVersionsMax > 1 {
		return fmt.Errorf("staleness bound violated: %d versions", s.StalenessVersionsMax)
	}
	return nil
}
