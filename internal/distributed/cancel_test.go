package distributed

import (
	"errors"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// launchCoalescedCluster builds the 2-worker/1-PS training so both of a
// worker's gradient edges land in one coalesce group, and returns a send
// member of a multi-member group on worker0.
func launchCoalescedCluster(t *testing.T) (*Cluster, *Env, *edge) {
	t.Helper()
	b, _ := buildPSTraining(t, 2, 1, 8, 12, 4, 0.2)
	cl, err := Launch(b, Config{
		Kind:        RDMA,
		ArenaBytes:  1 << 20,
		PollTimeout: 30 * time.Second,
		Transfer: rdma.TransferOpts{
			Deadline:          8 * time.Second,
			CoalesceThreshold: 256,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	env := cl.Server("worker0").Env
	var member *edge
	for _, m := range env.edges {
		if m != nil && m.sendGroup != nil && m.sendGroup.members >= 2 {
			member = m
			break
		}
	}
	if member == nil {
		t.Fatal("no multi-member coalesce send group on worker0; topology changed?")
	}
	return cl, env, member
}

// sendOp builds the send op the cluster's factory makes for an edge.
func sendOp(t *testing.T, cfg Config, spec analyzer.EdgeSpec) graph.AsyncKernel {
	t.Helper()
	send, _, err := commFactory(cfg)(spec)
	if err != nil {
		t.Fatal(err)
	}
	return send.(graph.AsyncKernel)
}

// memberCtx builds the minimal kernel context a coalesced send member needs.
func memberCtx(t *testing.T, env *Env, m *edge, iter int, canceled func() bool) *graph.Context {
	t.Helper()
	in := tensor.New(m.spec.Sig.DType, m.spec.Sig.Shape...)
	return &graph.Context{
		Iter:     iter,
		Inputs:   []*tensor.Tensor{in},
		Env:      env,
		Canceled: canceled,
	}
}

// A coalesced send dispatched after its iteration died must complete with
// an error instead of staging into a batch nobody will ever flush — the
// executor's quiesce drain waits on exactly that completion.
func TestCoalescedSendFailsWhenIterationCanceled(t *testing.T) {
	cl, env, m := launchCoalescedCluster(t)
	op := sendOp(t, cl.cfg, m.spec)
	ctx := memberCtx(t, env, m, 100, func() bool { return true })
	errCh := make(chan error, 1)
	op.ComputeAsync(ctx, func(err error) { errCh <- err })
	select {
	case err := <-errCh:
		if !errors.Is(err, rdma.ErrCanceled) {
			t.Fatalf("err = %v, want rdma.ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled coalesced send never completed")
	}
	m.sendGroup.mu.Lock()
	staged, waiters := m.sendGroup.staged, len(m.sendGroup.waiters)
	m.sendGroup.mu.Unlock()
	if staged != 0 || waiters != 0 {
		t.Errorf("group left staged=%d waiters=%d after cancel, want 0/0", staged, waiters)
	}
}

// A member that staged while the run was healthy parks its completion as a
// group waiter; when the run then dies before the batch fills, FailPending
// (called by exec.Run on a failed run) must release it. Regression test for
// the quiesce-drain deadlock: without the sweep, Run — and Step and
// recovery behind it — blocked forever on the parked waiter.
func TestEnvFailPendingReleasesStagedWaiter(t *testing.T) {
	cl, env, m := launchCoalescedCluster(t)
	op := sendOp(t, cl.cfg, m.spec)
	ctx := memberCtx(t, env, m, 100, func() bool { return false })
	errCh := make(chan error, 1)
	op.ComputeAsync(ctx, func(err error) { errCh <- err })
	// Wait until the staging goroutine has parked the waiter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.sendGroup.mu.Lock()
		parked := len(m.sendGroup.waiters) == 1
		m.sendGroup.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("member never staged")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-errCh:
		t.Fatalf("waiter completed before the batch filled or failed: %v", err)
	default:
	}
	env.FailPending(errors.New("step died"))
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("FailPending completed the waiter without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FailPending did not release the staged waiter")
	}
	m.sendGroup.mu.Lock()
	staged := m.sendGroup.staged
	m.sendGroup.mu.Unlock()
	if staged != 0 {
		t.Errorf("group staged = %d after FailPending, want 0 (batch reset)", staged)
	}
}

// A push queued by a dead iteration must be discarded by the receiver's
// poll, not delivered to (or poison) the live iteration.
func TestRPCRecvDiscardsStalePush(t *testing.T) {
	env := newEnv("worker0", GRPCTCP, nil, &metrics.Comm{}, rdma.TransferOpts{}, nil, nil)
	spec := analyzer.EdgeSpec{Key: "edge", Sig: graph.Static(tensor.Float32, 1)}
	mb := newMailbox()
	env.edges = []*edge{{spec: spec, kind: rpcEdge, mb: mb}}
	_, recv, err := commFactory(Config{Kind: GRPCTCP})(spec)
	if err != nil {
		t.Fatal(err)
	}
	op := recv.(*rpcRecvOp)
	ctx := &graph.Context{Iter: 1, Env: env} // live iteration expects seq 2

	stale := tensor.New(tensor.Float32, 1)
	mb.ch <- mailboxItem{seq: 9, t: stale} // e.g. aborted pre-rollback iteration
	ready, err := op.Poll(ctx)
	if err != nil {
		t.Fatalf("stale push poisoned the poll: %v", err)
	}
	if ready {
		t.Fatal("stale push was delivered as live data")
	}

	fresh := tensor.New(tensor.Float32, 1)
	fresh.Float32s()[0] = 42
	mb.ch <- mailboxItem{seq: 2, t: fresh}
	ready, err = op.Poll(ctx)
	if err != nil || !ready {
		t.Fatalf("live push not delivered: ready=%v err=%v", ready, err)
	}
	if err := op.Compute(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Output.Float32s()[0]; got != 42 {
		t.Errorf("delivered %v, want the live iteration's 42", got)
	}
}

// An RPC send dispatched after its iteration died must not push at all:
// the message would sit in the receiver's mailbox and masquerade as a later
// iteration's tensor.
func TestRPCSendSkipsPushWhenCanceled(t *testing.T) {
	net := transport.NewPipeNetwork().Network()
	l, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(l)
	calls := make(chan struct{}, 1)
	srv.Register(pushMethod, func(req []byte) ([]byte, error) {
		calls <- struct{}{}
		return nil, nil
	})
	srv.Start()
	defer srv.Close()
	client, err := rpc.Dial(net, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	env := newEnv("worker0", GRPCTCP, nil, &metrics.Comm{}, rdma.TransferOpts{}, nil, nil)
	spec := analyzer.EdgeSpec{Key: "edge", DstTask: "ps0", Sig: graph.Static(tensor.Float32, 1)}
	env.edges = []*edge{{spec: spec, kind: rpcEdge, client: client}}
	op := sendOp(t, Config{Kind: GRPCTCP}, spec)
	in := tensor.New(tensor.Float32, 1)
	ctx := &graph.Context{
		Iter:     3,
		Inputs:   []*tensor.Tensor{in},
		Env:      env,
		Canceled: func() bool { return true },
	}
	errCh := make(chan error, 1)
	op.ComputeAsync(ctx, func(err error) { errCh <- err })
	select {
	case err := <-errCh:
		if !errors.Is(err, rdma.ErrCanceled) {
			t.Fatalf("err = %v, want rdma.ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled send never completed")
	}
	select {
	case <-calls:
		t.Fatal("canceled send still pushed to the receiver")
	case <-time.After(100 * time.Millisecond):
	}
}
