// Serving: the zero-copy weight-publication plane. A trainer snapshots its
// variable store every few steps and streams the version into each
// replica's spare bank with one-sided striped writes — weights and version
// word first, the tail flag last, so a replica's poll loop can only ever
// observe a complete version. Replicas swap banks atomically (readers pin the old
// bank until drained; no torn weights, no copies on the serving path) and
// a batching frontend with bounded-queue admission control routes queries
// around replicas that are mid-swap or dead. The staleness invariant —
// no served answer more than one version behind the trainer — holds
// throughout, including across a replica crash and readmission.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/distributed"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func main() {
	const (
		replicas = 2
		n        = 8 // affine model width: out = x·w + b
		batch    = 4
	)

	// The trainer's variable store. The model is deliberately transparent:
	// every weight holds the version number, so a served row must equal
	// (n+1)·version — any mixture of versions would be visible instantly.
	vars := exec.NewVarStore()
	if err := vars.Create("w", tensor.New(tensor.Float32, n, n)); err != nil {
		log.Fatal(err)
	}
	if err := vars.Create("b", tensor.New(tensor.Float32, n)); err != nil {
		log.Fatal(err)
	}
	setVersion := func(v float32) {
		for _, name := range []string{"w", "b"} {
			t, _ := vars.VarTensor(name)
			t.Fill(v)
		}
	}

	spec := serve.ForwardSpec{
		Feed: "x", Fetch: "out",
		Batch: batch, Inputs: n, Classes: n,
		Build: func(b *graph.Builder) error {
			x := b.Placeholder("x", graph.Dyn(tensor.Float32, -1, n))
			w := b.Variable("w", graph.Static(tensor.Float32, n, n))
			bias := b.Variable("b", graph.Static(tensor.Float32, n))
			b.BiasAdd("out", b.MatMul("mm", x, w), bias)
			return b.Err()
		},
	}

	met := &metrics.Serve{}
	fleet, err := distributed.NewServingFleet(distributed.ServingConfig{
		Replicas: replicas, Spec: spec, Vars: vars,
		Heartbeat: distributed.HeartbeatConfig{
			Period: 2 * time.Millisecond, Timeout: 50 * time.Millisecond,
		},
		Metrics: met,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()

	x := make([]float32, n)
	for i := range x {
		x[i] = 1
	}

	// Publish three versions; after each, every served answer must carry
	// exactly that version's weights (or the one just behind it).
	for v := 1; v <= 3; v++ {
		setVersion(float32(v))
		if _, err := fleet.Publish(); err != nil {
			log.Fatal(err)
		}
		res := awaitVersion(fleet, x, uint64(v))
		fmt.Printf("v%d: out[0]=%v (want %v), staleness=%d\n",
			v, res.Probs[0], float32(n+1)*float32(v), res.Staleness)
	}

	// Crash one replica; the lease detector evicts it, the survivor keeps
	// serving, and the trainer keeps publishing.
	if err := fleet.KillReplica("replica0"); err != nil {
		log.Fatal(err)
	}
	fleet.AwaitDead("replica0", 5*time.Second)
	for fleet.Table().Alive("replica0") {
		time.Sleep(time.Millisecond)
	}
	setVersion(4)
	if _, err := fleet.Publish(); err != nil {
		log.Fatal(err)
	}
	res := awaitVersion(fleet, x, 4)
	fmt.Printf("v4 with replica0 dead: out[0]=%v, served by the survivor\n", res.Probs[0])

	// Readmit it: fresh banks, catch-up republish of the current version.
	if err := fleet.RestartReplica("replica0"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica0 readmitted at v%d\n", fleet.Version())

	s := met.Snapshot()
	fmt.Printf("publishes=%d republishes=%d swaps=%d served=%d staleness-max=%d\n",
		s.WeightPublishes, s.Republishes, s.BankSwaps, s.QueriesServed, s.StalenessVersionsMax)
}

func awaitVersion(fleet *distributed.ServingFleet, x []float32, v uint64) serve.Result {
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := fleet.Query(x)
		if err == nil && res.Version == v {
			return res
		}
		if time.Now().After(deadline) {
			log.Fatalf("fleet never served v%d (last err: %v)", v, err)
		}
		time.Sleep(time.Millisecond)
	}
}
