package distributed

import (
	"errors"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// servingTestSpec mirrors the serve package's affine test model: out =
// x·w + b, all weights filled with float32(version), every output element
// exactly (n+1)·version — a served row proves its complete version.
func servingTestSpec(batch, n int) serve.ForwardSpec {
	return serve.ForwardSpec{
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
}

func servingTestVars(t *testing.T, n int) *exec.VarStore {
	t.Helper()
	vs := exec.NewVarStore()
	if err := vs.Create("w", tensor.New(tensor.Float32, n, n)); err != nil {
		t.Fatal(err)
	}
	if err := vs.Create("b", tensor.New(tensor.Float32, n)); err != nil {
		t.Fatal(err)
	}
	return vs
}

func fillServingVars(t *testing.T, vs *exec.VarStore, v float32) {
	t.Helper()
	for _, name := range []string{"w", "b"} {
		tt, err := vs.VarTensor(name)
		if err != nil {
			t.Fatal(err)
		}
		tt.Fill(v)
	}
}

// TestServingFleetCrashRecovery drives the full replica-death path through
// the distributed wiring: lease expiry → routing eviction + publication-set
// removal → survivors keep serving and the trainer keeps publishing →
// restart under the same task name → readmission serves the current
// version.
func TestServingFleetCrashRecovery(t *testing.T) {
	const n = 8
	vars := servingTestVars(t, n)
	met := &metrics.Serve{}
	rec := &metrics.Recovery{}
	fleet, err := NewServingFleet(ServingConfig{
		Replicas: 2,
		Spec:     servingTestSpec(4, n),
		Vars:     vars,
		Heartbeat: HeartbeatConfig{
			Period: 2 * time.Millisecond, Timeout: 20 * time.Millisecond,
		},
		Metrics: met, Recovery: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	publish := func(v float32) uint64 {
		fillServingVars(t, vars, v)
		got, err := fleet.Publish()
		if err != nil {
			t.Fatalf("publish %v: %v", v, err)
		}
		return got
	}
	query := func() (serve.Result, error) {
		x := make([]float32, n)
		for i := range x {
			x[i] = 1
		}
		return fleet.Query(x)
	}
	awaitServed := func(v uint64) serve.Result {
		deadline := time.Now().Add(5 * time.Second)
		for {
			res, err := query()
			if err == nil && res.Version == v {
				return res
			}
			if time.Now().After(deadline) {
				t.Fatalf("fleet never served v%d (last: res=%+v err=%v)", v, res, err)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if got := publish(1); got != 1 {
		t.Fatalf("first publish = v%d", got)
	}
	res := awaitServed(1)
	for i, p := range res.Probs {
		if want := float32(n+1) * 1; p != want {
			t.Fatalf("row[%d]=%v, want %v", i, p, want)
		}
	}

	// Kill replica0 mid-service; the detector must evict it.
	if err := fleet.KillReplica(serveReplicaTask(0)); err != nil {
		t.Fatal(err)
	}
	if !fleet.AwaitDead(serveReplicaTask(0), 5*time.Second) {
		t.Fatal("detector never expired the killed replica's lease")
	}
	deadline := time.Now().Add(5 * time.Second)
	for fleet.Table().Alive(serveReplicaTask(0)) {
		if time.Now().After(deadline) {
			t.Fatal("routing table never evicted the dead replica")
		}
		time.Sleep(time.Millisecond)
	}
	if rec.Snapshot().LeaseExpiries == 0 {
		t.Fatal("no lease expiry recorded")
	}

	// The trainer publishes on; the survivor serves the new version.
	if got := publish(2); got != 2 {
		t.Fatalf("publish with dead replica = v%d", got)
	}
	res = awaitServed(2)
	if res.Staleness > 1 {
		t.Fatalf("staleness %d > 1 with one replica down", res.Staleness)
	}

	// Restart under the same name: catch-up republish, then normal flow.
	if err := fleet.RestartReplica(serveReplicaTask(0)); err != nil {
		t.Fatal(err)
	}
	r0 := fleet.Replica(serveReplicaTask(0))
	if r0 == nil {
		t.Fatal("restarted replica not tracked")
	}
	deadline = time.Now().Add(5 * time.Second)
	for r0.ActiveVersion() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("readmitted replica at v%d, want v2", r0.ActiveVersion())
		}
		time.Sleep(time.Millisecond)
	}
	if rec.Snapshot().Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", rec.Snapshot().Rejoins)
	}

	// And it rides the next regular publication.
	if got := publish(3); got != 3 {
		t.Fatalf("post-restart publish = v%d", got)
	}
	deadline = time.Now().Add(5 * time.Second)
	for r0.ActiveVersion() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("readmitted replica stuck at v%d after v3", r0.ActiveVersion())
		}
		time.Sleep(time.Millisecond)
	}
	snap := met.Snapshot()
	if snap.Republishes != 1 {
		t.Fatalf("republishes = %d, want 1", snap.Republishes)
	}
	if snap.StalenessVersionsMax > 1 {
		t.Fatalf("staleness max %d > 1 across the crash cycle", snap.StalenessVersionsMax)
	}
}

// TestServingFleetOverload pins the fleet-level admission contract: a tiny
// queue under a burst sheds typed ErrOverloaded.
func TestServingFleetOverload(t *testing.T) {
	const n = 8
	vars := servingTestVars(t, n)
	met := &metrics.Serve{}
	fleet, err := NewServingFleet(ServingConfig{
		Replicas: 1,
		Spec:     servingTestSpec(4, n),
		Vars:     vars,
		MaxQueue: 2,
		// Long batch wait so the burst outruns the drain deterministically.
		BatchWait: 50 * time.Millisecond,
		Metrics:   met,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	fillServingVars(t, vars, 1)
	if _, err := fleet.Publish(); err != nil {
		t.Fatal(err)
	}

	x := make([]float32, n)
	const burst = 32
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			_, err := fleet.Query(x)
			errs <- err
		}()
	}
	shed := 0
	for i := 0; i < burst; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, serve.ErrOverloaded) {
				shed++
			} else if err != nil {
				t.Fatalf("unexpected query error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("burst queries did not resolve")
		}
	}
	if shed == 0 {
		t.Fatal("no queries shed under burst with MaxQueue=2")
	}
	if met.Snapshot().QueriesShed != int64(shed) {
		t.Fatalf("shed counter %d, want %d", met.Snapshot().QueriesShed, shed)
	}
}
