package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// affineSpec is the test model: out = x·w + b with w (n×n) and b (n). With
// x all ones and both weights filled with float32(v), every output element
// is exactly (n+1)·v in float32 — so a served row proves which complete
// version produced it, and any torn mixture of versions lands off-grid.
func affineSpec(batch, n int) ForwardSpec {
	return ForwardSpec{
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

func affineStore(t *testing.T, n int) *exec.VarStore {
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

func setVersionWeights(t *testing.T, vs *exec.VarStore, v float32) {
	t.Helper()
	for _, name := range []string{"w", "b"} {
		tt, err := vs.VarTensor(name)
		if err != nil {
			t.Fatal(err)
		}
		tt.Fill(v)
	}
}

func ones(n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// fleet wires a publisher and replicas on one in-process fabric.
type fleet struct {
	fabric *rdma.Fabric
	tdev   *rdma.Device
	vars   *exec.VarStore
	layout *WeightLayout
	pub    *WeightPublisher
	spec   ForwardSpec
	met    *metrics.Serve
	// next mirrors the publisher's staged version counter (every Publish
	// call consumes a version, even a failed one).
	next uint64
}

func newFleet(t *testing.T, batch, n, lanes int) *fleet {
	t.Helper()
	return newFleetFor(t, affineStore(t, n), affineSpec(batch, n), lanes)
}

// newFleetFor is newFleet for any trainer store and the spec serving it.
func newFleetFor(t *testing.T, vars *exec.VarStore, spec ForwardSpec, lanes int) *fleet {
	t.Helper()
	fabric := rdma.NewFabric()
	tdev, err := rdma.CreateDevice(fabric, rdma.Config{Endpoint: "trainer"})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := LayoutFor(vars, nil)
	if err != nil {
		t.Fatal(err)
	}
	met := &metrics.Serve{}
	pub, err := NewWeightPublisher(PublisherConfig{
		Dev: tdev, Vars: vars, Layout: layout,
		Lanes: lanes, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fleet{
		fabric: fabric, tdev: tdev, vars: vars, layout: layout,
		pub: pub, spec: spec, met: met,
	}
}

// addReplica spins up one replica endpoint, wires it to the publisher and
// starts its swap loop.
func (f *fleet) addReplica(t *testing.T, task string) (*Replica, *rdma.Device) {
	t.Helper()
	r, dev := f.newReplica(t, task)
	r.Start()
	return r, dev
}

// newReplica is addReplica without starting the swap loop.
func (f *fleet) newReplica(t *testing.T, task string) (*Replica, *rdma.Device) {
	t.Helper()
	dev, err := rdma.CreateDevice(f.fabric, rdma.Config{Endpoint: task})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(ReplicaConfig{
		Task: task, Dev: dev, Layout: f.layout, Spec: f.spec,
		PublisherTask: "trainer", Metrics: f.met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.pub.AddReplica(r.Target()); err != nil {
		t.Fatal(err)
	}
	ack, err := f.pub.AckRegion(task)
	if err != nil {
		t.Fatal(err)
	}
	r.SetAckRegion(ack)
	t.Cleanup(r.Close)
	return r, dev
}

// publishNext bumps the weight fill to the next version and publishes it.
func (f *fleet) publishNext(t *testing.T) uint64 {
	t.Helper()
	f.next++
	setVersionWeights(t, f.vars, float32(f.next))
	v, err := f.pub.Publish()
	if err != nil {
		t.Fatalf("publish v%d: %v", f.next, err)
	}
	if v != f.next {
		t.Fatalf("published v%d, want v%d", v, f.next)
	}
	return v
}

func waitVersion(t *testing.T, r *Replica, v uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.ActiveVersion() != v {
		if time.Now().After(deadline) {
			t.Fatalf("replica %s stuck at v%d, want v%d", r.Task(), r.ActiveVersion(), v)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestLayoutSnapshotViewRoundTrip(t *testing.T) {
	vs := affineStore(t, 8)
	setVersionWeights(t, vs, 3)
	layout, err := LayoutFor(vs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if layout.BankBytes() != rdma.StaticSlotSize(layout.Payload+versionWordSize) {
		t.Fatalf("bank bytes %d, payload %d", layout.BankBytes(), layout.Payload)
	}
	buf := make([]byte, layout.BankBytes())
	if err := layout.Snapshot(vs, buf); err != nil {
		t.Fatal(err)
	}
	view, err := layout.View(buf[:layout.Payload])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"w", "b"} {
		orig, _ := vs.VarTensor(name)
		got, err := view.VarTensor(name)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(orig) {
			t.Fatalf("%s: view differs from source", name)
		}
	}
	// The view aliases: mutating buf must show through.
	w, _ := view.VarTensor("w")
	buf[layout.Entries[1].Off] = 0xFF // "w" sorts after "b"
	if w.Bytes()[0] != 0xFF {
		t.Fatal("view does not alias the bank buffer")
	}
}

func TestPublishBitIdentical(t *testing.T) {
	f := newFleet(t, 2, 8, 2)
	r, _ := f.addReplica(t, "replica0")
	v := f.publishNext(t)
	waitVersion(t, r, v)

	bank := r.banks[v%2]
	got := bank.mr.Bytes()[:f.layout.Payload]
	want := f.pub.scratch.Bytes()[:f.layout.Payload]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bank byte %d = %#x, trainer snapshot has %#x", i, got[i], want[i])
		}
	}
	if bank.mr.LoadWord(f.layout.VersionOff()) != v {
		t.Fatalf("bank version word %d, want %d", bank.mr.LoadWord(f.layout.VersionOff()), v)
	}
	if !bank.slot.Poll() {
		t.Fatal("active bank's flag is clear")
	}
}

// TestPublishRetriesTransientFault: a payload stripe the fabric drops is
// re-sent within the publish deadline, and the bank still ends up
// bit-identical to the staged snapshot.
func TestPublishRetriesTransientFault(t *testing.T) {
	f := newFleet(t, 2, 8, 2)
	r, _ := f.addReplica(t, "replica0")
	var dropped atomic.Bool
	f.fabric.SetHooks(rdma.Hooks{TransferFault: func(op rdma.Op, size int) error {
		if op == rdma.OpWrite && size > rdma.FlagWordSize && dropped.CompareAndSwap(false, true) {
			return fmt.Errorf("payload stripe dropped: %w", rdma.ErrInjected)
		}
		return nil
	}})
	v := f.publishNext(t)
	if !dropped.Load() {
		t.Fatal("no payload stripe was dropped")
	}
	waitVersion(t, r, v)
	n := f.layout.Payload + versionWordSize
	if !bytes.Equal(r.banks[v%2].mr.Bytes()[:n], f.pub.scratch.Bytes()[:n]) {
		t.Fatal("bank differs from the trainer snapshot after a retried publish")
	}
}

// TestStalenessBoundUnderLoad is the serving gate: continuous publication
// against concurrent query load, asserting every served response (a) is
// bit-identical to the complete snapshot of the version it claims —
// every output element exactly (n+1)·version — and (b) is at most one
// version behind the trainer.
func TestStalenessBoundUnderLoad(t *testing.T) {
	const (
		n        = 8
		batch    = 4
		versions = 40
	)
	f := newFleet(t, batch, n, 2)
	r0, _ := f.addReplica(t, "replica0")
	r1, _ := f.addReplica(t, "replica1")

	table := NewRoutingTable(f.met)
	table.Add(r0)
	table.Add(r1)
	fe, err := NewFrontend(FrontendConfig{
		Table: table, Spec: f.spec, MaxQueue: 64,
		BatchWait:      100 * time.Microsecond,
		TrainerVersion: f.pub.Version, Metrics: f.met,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe.Start()
	defer fe.Close()

	// First version up before load starts, so queries have something.
	waitVersion(t, r0, f.publishNext(t))
	waitVersion(t, r1, 1)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for q := 0; q < 6; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := ones(n)
			for !stop.Load() {
				res, err := fe.Query(x)
				if err != nil {
					if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrNoReplica) {
						continue // load shed is legal; correctness is about served answers
					}
					errCh <- err
					return
				}
				if res.Staleness > 1 {
					errCh <- fmt.Errorf("staleness %d > 1 at served v%d", res.Staleness, res.Version)
					return
				}
				want := float32(n+1) * float32(res.Version)
				for i, got := range res.Probs {
					if got != want {
						errCh <- fmt.Errorf("served v%d row[%d]=%v, want exactly %v (torn read?)", res.Version, i, got, want)
						return
					}
				}
			}
		}()
	}

	for i := 1; i < versions; i++ {
		f.publishNext(t)
	}
	// Let queries observe the final version too.
	time.Sleep(5 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	snap := f.met.Snapshot()
	if snap.QueriesServed == 0 {
		t.Fatal("no queries served under load")
	}
	if snap.StalenessVersionsMax > 1 {
		t.Fatalf("metrics recorded staleness max %d > 1", snap.StalenessVersionsMax)
	}
	if snap.WeightPublishes != versions {
		t.Fatalf("publishes %d, want %d", snap.WeightPublishes, versions)
	}
}

// TestTrainerCrashMidPublication: the trainer dies after the payload
// stripes land but before the tail flag does. The bank holds the new
// weights and version word but no flag, so the replica must keep serving
// the last complete version and never swap to the torn bank.
func TestTrainerCrashMidPublication(t *testing.T) {
	const n = 8
	f := newFleet(t, 2, n, 2) // two lanes: the flag is its own write
	r, _ := f.addReplica(t, "replica0")
	waitVersion(t, r, f.publishNext(t))

	var crashed atomic.Bool
	f.fabric.SetHooks(rdma.Hooks{TransferFault: func(op rdma.Op, size int) error {
		if op == rdma.OpWrite && size == rdma.FlagWordSize && crashed.CompareAndSwap(false, true) {
			return errors.New("trainer crashed before the flag write")
		}
		return nil
	}})
	setVersionWeights(t, f.vars, 2)
	if _, err := f.pub.Publish(); err == nil {
		t.Fatal("publish should fail when the trainer dies before the flag write")
	}

	// v2 targets bank 0: its payload landed, its flag did not, and the
	// replica must not swap.
	torn := r.banks[0]
	if torn.slot.Poll() {
		t.Fatal("torn bank's flag is set")
	}
	if got := torn.mr.LoadWord(f.layout.VersionOff()); got != 2 {
		t.Fatalf("torn bank version word %d, want 2 (the payload landed)", got)
	}
	time.Sleep(2 * time.Millisecond)
	if v := r.ActiveVersion(); v != 1 {
		t.Fatalf("replica at v%d after trainer crash, want v1", v)
	}
	ref, ok := r.Acquire()
	if !ok {
		t.Fatal("replica stopped serving after trainer crash")
	}
	defer ref.Release()
	x, _ := tensor.FromFloat32(tensor.Shape{2, n}, ones(2*n))
	out, err := r.Infer(ref, x)
	if err != nil {
		t.Fatal(err)
	}
	want := float32(n+1) * 1
	for i, got := range out.Float32s() {
		if got != want {
			t.Fatalf("row[%d]=%v, want %v: replica served torn weights", i, got, want)
		}
	}
}

// TestReplicaRestartReadmission covers the replica-death path: the replica
// dies, is removed, restarts under the same task name with fresh banks,
// and a Republish catches it up to the current version.
func TestReplicaRestartReadmission(t *testing.T) {
	const n = 8
	f := newFleet(t, 2, n, 1)
	r, dev := f.addReplica(t, "replica0")
	waitVersion(t, r, f.publishNext(t))
	waitVersion(t, r, f.publishNext(t))

	// Death: swap loop stops, endpoint unregisters, publisher drops it.
	r.Close()
	dev.Close()
	f.pub.RemoveReplica("replica0")

	// Trainer keeps going while the replica is down: with the dead replica
	// removed from the fan-out, v3 commits against the (empty) survivor set.
	if v := f.publishNext(t); v != 3 {
		t.Fatalf("publish while replica down: v%d, want v3", v)
	}

	// Restart under the same name; readmission republishes the current
	// version into the fresh banks.
	r2, _ := f.addReplica(t, "replica0")
	v, err := f.pub.Republish("replica0")
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("republished v%d, want v3", v)
	}
	waitVersion(t, r2, 3)

	ref, ok := r2.Acquire()
	if !ok {
		t.Fatal("readmitted replica not serving")
	}
	defer ref.Release()
	x, _ := tensor.FromFloat32(tensor.Shape{2, n}, ones(2*n))
	out, err := r2.Infer(ref, x)
	if err != nil {
		t.Fatal(err)
	}
	want := float32(n+1) * 3
	for i, got := range out.Float32s() {
		if got != want {
			t.Fatalf("row[%d]=%v, want %v after readmission", i, got, want)
		}
	}
	// And it rejoins the normal publication flow.
	waitVersion(t, r2, f.publishNext(t))
}

// TestOverloadShed pins the admission contract: with the queue full, Query
// sheds immediately with the typed ErrOverloaded instead of blocking.
func TestOverloadShed(t *testing.T) {
	met := &metrics.Serve{}
	table := NewRoutingTable(met)
	spec := affineSpec(4, 8)
	fe, err := NewFrontend(FrontendConfig{
		Table: table, Spec: spec, MaxQueue: 2, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: no consumer, so the queue fills deterministically.
	const queries = 5
	var shed atomic.Int64
	var wg sync.WaitGroup
	results := make(chan error, queries)
	start := time.Now()
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := fe.Query(ones(8))
			if errors.Is(err, ErrOverloaded) {
				shed.Add(1)
			}
			results <- err
		}()
	}
	// The three that don't fit must shed quickly (bounded time), without
	// waiting on the two that are queued.
	deadline := time.After(2 * time.Second)
	for i := 0; i < queries-2; i++ {
		select {
		case <-results:
		case <-deadline:
			t.Fatal("shed queries did not fail in bounded time")
		}
	}
	if got := shed.Load(); got != queries-2 {
		t.Fatalf("shed %d queries, want %d", got, queries-2)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shedding took %v", elapsed)
	}
	if met.Snapshot().QueriesShed != queries-2 {
		t.Fatalf("shed counter %d, want %d", met.Snapshot().QueriesShed, queries-2)
	}
	// Draining the queue with no replicas fails the queued pair with the
	// typed no-replica error, not a hang.
	fe.Start()
	defer fe.Close()
	wg.Wait()
	close(results)
	for err := range results {
		if err == nil {
			t.Fatal("query succeeded with no replicas")
		}
		if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrNoReplica) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

// TestDispatchWaitsForStagedReplica: a batch dispatched after Publish but
// before the replica's swap loop has activated the version waits for it
// instead of failing with ErrNoReplica; with nothing published it fails at
// once.
func TestDispatchWaitsForStagedReplica(t *testing.T) {
	f := newFleet(t, 1, 8, 1)
	r, _ := f.newReplica(t, "replica0") // swap loop held back
	table := NewRoutingTable(f.met)
	table.Add(r)
	fe, err := NewFrontend(FrontendConfig{
		Table: table, Spec: f.spec, BatchWait: 10 * time.Second, Metrics: f.met,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe.Start()
	defer fe.Close()

	query := func() chan error {
		done := make(chan error, 1)
		go func() {
			res, err := fe.Query(ones(8))
			if err == nil && res.Version != 1 {
				err = fmt.Errorf("served v%d, want v1", res.Version)
			}
			done <- err
		}()
		return done
	}
	select {
	case err := <-query():
		if !errors.Is(err, ErrNoReplica) {
			t.Fatalf("query with nothing published: %v, want ErrNoReplica", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query with nothing published waited on an unstaged replica")
	}

	v := f.publishNext(t)
	if _, staged := table.pick(); r.ActiveVersion() != 0 || !staged {
		t.Fatalf("after publish: active v%d, staged %v; want v0 and staged", r.ActiveVersion(), staged)
	}
	done := query()
	// The swap loop is not running, so nothing can serve the query yet: it
	// must still be waiting, not failed with ErrNoReplica.
	select {
	case err := <-done:
		t.Fatalf("query resolved before the replica activated: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.Start()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("query against staged v%d: %v", v, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not resolve once the replica activated")
	}
	if got := f.met.Snapshot().RoutingRejects; got != 1 {
		t.Fatalf("routing rejects %d, want 1 (the unpublished query only)", got)
	}
}

// TestRoutingAroundDeadAndSwapping pins pick's preferences.
func TestRoutingAroundDeadAndSwapping(t *testing.T) {
	f := newFleet(t, 2, 8, 1)
	r0, _ := f.addReplica(t, "replica0")
	r1, _ := f.addReplica(t, "replica1")
	table := NewRoutingTable(f.met)
	table.Add(r0)
	table.Add(r1)

	// Warming replicas are unroutable.
	if got, _ := table.pick(); got != nil {
		t.Fatalf("picked warming replica %s", got.Task())
	}
	v := f.publishNext(t)
	waitVersion(t, r0, v)
	waitVersion(t, r1, v)

	if got, _ := table.pick(); got == nil {
		t.Fatal("no pick with two serving replicas")
	}
	table.MarkDead("replica0")
	for i := 0; i < 8; i++ {
		r, _ := table.pick()
		if r == nil {
			t.Fatal("no pick with one live replica")
		}
		if r.Task() != "replica1" {
			t.Fatalf("picked dead replica %s", r.Task())
		}
	}
	table.MarkDead("replica1")
	if got, _ := table.pick(); got != nil {
		t.Fatal("picked from a fully dead table")
	}
	if f.met.Snapshot().ActiveReplicas != 0 {
		t.Fatalf("active gauge %d, want 0", f.met.Snapshot().ActiveReplicas)
	}
	// Readmission under the same name routes again.
	table.Add(r1)
	if r, _ := table.pick(); r == nil || r.Task() != "replica1" {
		t.Fatal("readmitted replica not routable")
	}
}

// TestPublisherBankHeldTimeout: a reader that never releases the old bank
// stalls the publisher at the staleness bound rather than letting it
// overwrite live-read memory.
func TestPublisherBankHeldTimeout(t *testing.T) {
	f := newFleet(t, 2, 8, 1)
	f.pub.publishTimeout = 50 * time.Millisecond
	r, _ := f.addReplica(t, "replica0")
	waitVersion(t, r, f.publishNext(t))

	ref, ok := r.Acquire() // pin v1's bank and never release
	if !ok {
		t.Fatal("acquire failed")
	}
	f.publishNext(t) // v2 fills the other bank; replica swaps but can't drain v1's bank
	waitVersion(t, r, 2)

	setVersionWeights(t, f.vars, 3)
	if _, err := f.pub.Publish(); !errors.Is(err, ErrBankHeld) {
		t.Fatalf("publish v3 over a held bank: err=%v, want ErrBankHeld", err)
	}
	ref.Release()
	// Released: the drain finishes, the ack lands, and publication resumes.
	setVersionWeights(t, f.vars, 4)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := f.pub.Publish(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("publish never recovered after release: %v", err)
		}
	}
}

// TestReleasedBankFlagClearBeforeAck: a released bank's flag is clear by
// the time its release ack lands at the publisher. Once acked, the
// publisher may write the bank, and a stale set flag over that write would
// expose a torn bank.
func TestReleasedBankFlagClearBeforeAck(t *testing.T) {
	f := newFleet(t, 2, 8, 1)
	r, _ := f.addReplica(t, "replica0")
	f.pub.mu.Lock()
	ack := f.pub.replicas["replica0"].ack
	f.pub.mu.Unlock()
	// OnTransfer runs on the writer's QP goroutine after the write landed
	// and before it completes, so the first call that sees bank 1's ack
	// sees the replica as the publisher does on observing it.
	released := make(chan bool, 1)
	var once sync.Once
	f.fabric.SetHooks(rdma.Hooks{OnTransfer: func(rdma.Op, int) {
		if ack.LoadWord(versionWordSize) >= 1 {
			once.Do(func() { released <- r.banks[1].slot.Poll() })
		}
	}})
	waitVersion(t, r, f.publishNext(t)) // v1 into bank 1
	waitVersion(t, r, f.publishNext(t)) // v2 into bank 0; bank 1 is released
	select {
	case flagSet := <-released:
		if flagSet {
			t.Fatal("bank 1's flag still set when its release ack landed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bank 1's release ack never landed")
	}
}

// TestInferRunsRealRowCount: MLPForward's feed takes any row count up to
// Spec.Batch, a 3-row feed returns 3 rows, and each row's bits match the
// same row run inside a full batch (the kernels are row-partitioned).
func TestInferRunsRealRowCount(t *testing.T) {
	const batch, in, hidden, classes = 4, 8, 16, 5
	vars := exec.NewVarStore()
	rng := rand.New(rand.NewSource(1))
	for _, v := range []struct {
		name  string
		shape []int
	}{{"w1", []int{in, hidden}}, {"b1", []int{hidden}}, {"w2", []int{hidden, classes}}, {"b2", []int{classes}}} {
		w := tensor.New(tensor.Float32, v.shape...)
		tensor.RandomUniform(w, rng, 0.5)
		if err := vars.Create(v.name, w); err != nil {
			t.Fatal(err)
		}
	}
	f := newFleetFor(t, vars, MLPForward(batch, in, hidden, classes), 1)
	r, _ := f.addReplica(t, "replica0")
	v, err := f.pub.Publish()
	if err != nil {
		t.Fatal(err)
	}
	waitVersion(t, r, v)
	ref, ok := r.Acquire()
	if !ok {
		t.Fatal("replica not serving")
	}
	defer ref.Release()

	full := tensor.New(tensor.Float32, batch, in)
	tensor.RandomUniform(full, rng, 1)
	want, err := r.Infer(ref, full)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 3
	x, _ := tensor.FromFloat32(tensor.Shape{rows, in}, full.Float32s()[:rows*in])
	got, err := r.Infer(ref, x)
	if err != nil {
		t.Fatalf("infer %d rows: %v", rows, err)
	}
	if !got.Shape().Equal(tensor.Shape{rows, classes}) {
		t.Fatalf("infer %d rows: output shape %v, want [%d %d]", rows, got.Shape(), rows, classes)
	}
	for i, g := range got.Float32s() {
		if w := want.Float32s()[i]; g != w {
			t.Fatalf("element %d = %v in a %d-row batch, %v in a %d-row batch", i, g, rows, w, batch)
		}
	}
}

// TestNewReplicaRejectsStaticBatchFeed: a feed with a static leading dim
// would force padding to one geometry, so the replica refuses it.
func TestNewReplicaRejectsStaticBatchFeed(t *testing.T) {
	const n = 8
	f := newFleet(t, 2, n, 1)
	spec := f.spec
	spec.Build = func(b *graph.Builder) error {
		x := b.Placeholder("x", graph.Static(tensor.Float32, 2, n))
		w := b.Variable("w", graph.Static(tensor.Float32, n, n))
		bias := b.Variable("b", graph.Static(tensor.Float32, n))
		b.BiasAdd("out", b.MatMul("mm", x, w), bias)
		return b.Err()
	}
	dev, err := rdma.CreateDevice(f.fabric, rdma.Config{Endpoint: "replica0"})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	_, err = NewReplica(ReplicaConfig{Task: "replica0", Dev: dev, Layout: f.layout, Spec: spec})
	if !errors.Is(err, rdma.ErrBadConfig) {
		t.Fatalf("static-batch feed: err=%v, want ErrBadConfig", err)
	}
}

// outstandingOn reads the table's in-flight batch count for one replica.
func outstandingOn(rt *RoutingTable, task string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if e, ok := rt.entries[task]; ok {
		return e.outstanding
	}
	return 0
}

// TestParallelDispatchAcrossReplicas: with replica0 stuck inside a batch,
// a new query is answered by replica1 — the frontend runs a dispatcher per
// replica instead of one loop parked on the busy replica.
func TestParallelDispatchAcrossReplicas(t *testing.T) {
	const n = 8
	f := newFleet(t, 4, n, 1)
	r0, _ := f.addReplica(t, "replica0")
	r1, _ := f.addReplica(t, "replica1")
	table := NewRoutingTable(f.met)
	table.Add(r0)
	table.Add(r1)
	fe, err := NewFrontend(FrontendConfig{
		Table: table, Spec: f.spec, BatchWait: 100 * time.Microsecond, Metrics: f.met,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe.Start()
	defer fe.Close()
	v := f.publishNext(t)
	waitVersion(t, r0, v)
	waitVersion(t, r1, v)

	r0.runMu.Lock() // replica0's next batch blocks inside Infer
	release := sync.OnceFunc(r0.runMu.Unlock)
	defer release() // before fe.Close, which waits for the parked dispatcher

	query := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, err := fe.Query(ones(n))
			done <- err
		}()
		return done
	}
	// Send queries one at a time until pick parks one on replica0; the
	// ones it routes to replica1 meanwhile are answered.
	deadline := time.Now().Add(5 * time.Second)
	parkedOn0 := func(done chan error) bool {
		for outstandingOn(table, "replica0") == 0 {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("probe query: %v", err)
				}
				return false
			case <-time.After(50 * time.Microsecond):
			}
			if time.Now().After(deadline) {
				t.Fatal("no query was routed to replica0")
			}
		}
		return true
	}
	var parked chan error
	for parked == nil {
		if done := query(); parkedOn0(done) {
			parked = done
		}
	}

	select {
	case err := <-query():
		if err != nil {
			t.Fatalf("query while replica0 is busy: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query not answered while replica0 is busy: dispatch is serialized behind it")
	}
	if got := outstandingOn(table, "replica0"); got != 1 {
		t.Fatalf("replica0 outstanding %d while its batch is parked, want 1", got)
	}
	release()
	if err := <-parked; err != nil {
		t.Fatalf("parked query after release: %v", err)
	}
}
