package distributed

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/analyzer"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Config parameterizes a cluster launch.
type Config struct {
	// Kind selects the communication mechanism.
	Kind Kind
	// ArenaBytes is the per-server registered-memory arena size
	// (default 64 MiB). The graph analyzer registers it once, §3.4.
	ArenaBytes int
	// ExecWorkers is the per-server executor worker count (default 4).
	ExecWorkers int
	// KernelWorkers sizes the process-wide compute-kernel pool shared by all
	// servers' tensor kernels (default GOMAXPROCS). Results are bit-identical
	// at any size.
	KernelWorkers int
	// RingCfg tunes the gRPC.RDMA ring transport.
	RingCfg transport.RingConfig
	// NumCQs and QPsPerPeer configure the RDMA devices (default 4/4, the
	// paper's evaluation setting).
	NumCQs, QPsPerPeer int
	// QPSlots, when positive, multiplexes each device's peer channels over
	// a bounded pool of QP slots (rdma.QPMux): at most QPSlots peers hold
	// live QP groups at a time, LRU-evicted as traffic shifts. QP state is
	// then O(tasks × QPSlots) cluster-wide instead of O(tasks²). Zero keeps
	// direct per-peer QPs.
	QPSlots int
	// LossyFabric runs statically placed edges over the per-tensor
	// selective-retransmit protocol (rdma.LossySender/LossyReceiver), the
	// configuration for fabrics that drop packets instead of NAKing them.
	// Dropped chunks are NACKed and re-sent individually; training results
	// stay bit-identical to a lossless run from the same seed.
	LossyFabric bool
	// PollTimeout aborts a step whose receive operators make no progress
	// (dead peer, partitioned fabric). Default 30s; negative disables.
	PollTimeout time.Duration
	// Transfer bounds every RDMA edge transfer: total deadline, retry
	// budget, and backoff for transient fabric faults. The zero value
	// selects the rdma package defaults (10s deadline, 64 retries).
	Transfer rdma.TransferOpts
	// Trace, when non-nil, records every server's operator executions into
	// one timeline (chrome trace-event format).
	Trace *trace.Recorder
}

func (c *Config) setDefaults() {
	if c.ArenaBytes == 0 {
		c.ArenaBytes = 64 << 20
	}
	if c.ExecWorkers == 0 {
		c.ExecWorkers = 4
	}
	if c.PollTimeout == 0 {
		c.PollTimeout = 30 * time.Second
	} else if c.PollTimeout < 0 {
		c.PollTimeout = 0
	}
}

// Server is one emulated machine: an RDMA device, a registered arena, a
// variable store, and an executor over its graph partition.
type Server struct {
	Task     string
	Dev      *rdma.Device
	ArenaMR  *rdma.MemRegion
	Arena    *alloc.Arena
	Policy   *analyzer.TracingPolicy
	VarStore *exec.VarStore
	Exec     *exec.Executor
	Env      *Env
	Metrics  *metrics.Comm
	// Hists holds the task's latency/size distributions (per-op execution,
	// per-edge bytes and transfer time, poll-wait, ring sends). Like Metrics
	// it is carried across a recovery restart, so the books stay balanced
	// over the task's whole lifetime, rebuilds included.
	Hists *metrics.Set
	// Mux, when Config.QPSlots is set, multiplexes this device's peer
	// channels over a bounded QP-slot pool; senders and receivers lease
	// lanes through it per transfer attempt.
	Mux *rdma.QPMux

	rpcSrv  *rpc.Server
	rpcAddr string

	// Setup-only state: edge setup, InitVariable, restore and Close read
	// and write it, never a step.
	//
	// stagings are the sender staging slots by source node; fan-out edges
	// share one. They outlive edge rebuilds: variables live in them.
	stagings map[string]*stagingSlot
	// clients are the RPC mechanisms' clients by destination task.
	clients    map[string]*rpc.Client
	qpCounters map[string]int // per-peer round-robin QP assignment
	// edgeMRs are the regions whose lifetime is one edge-setup round
	// (receive slots, dyn metadata and scratch blocks, coalesce batches).
	// teardownEdges frees them, so a transfer surviving from an aborted
	// iteration faults on region lookup instead of corrupting rebuilt state.
	// Staging slots are deliberately NOT here: variables live in them.
	edgeMRs []*rdma.MemRegion
}

// Cluster is an in-process multi-server deployment of one partitioned
// data-flow graph.
type Cluster struct {
	cfg    Config
	fabric *rdma.Fabric
	result *analyzer.Result

	// mu guards the servers map and the Exec pointers inside: recovery
	// replaces both while detector goroutines and metric readers look on.
	mu       sync.RWMutex
	servers  map[string]*Server
	recovery *Recovery // non-nil once EnableRecovery ran; Close stops it

	// stepStats accumulates per-task step-time breakdowns. It lives on the
	// cluster — not the executor — so the numbers survive recovery replacing
	// executors. Keys are fixed at Launch; the StepStat values are internally
	// synchronized.
	stepStats map[string]*metrics.StepStat
}

// edgeDescMethod and edgeBackMethod are the vanilla-RPC methods used for
// address distribution (§3.1: "a simple vanilla RPC mechanism ... for this
// auxiliary purpose of distributing remote memory addresses"): a sender
// fetches its receiver's slot descriptor, then pushes back the address of
// the word its receiver answers into (edge.installBack). Both name the edge
// (or coalesce group) by key, resolved through the receiver's Env.byName.
const (
	edgeDescMethod = "edge.desc"
	edgeBackMethod = "edge.back"
	rpcTimeout     = 10 * time.Second
)

// Launch partitions the builder's graph with the mechanism's Send/Recv
// operators, creates one server per task, performs address distribution,
// and builds per-partition executors. Variables must then be initialized
// with InitVariable before the first Step.
func Launch(b *graph.Builder, cfg Config) (*Cluster, error) {
	cfg.setDefaults()
	res, err := analyzer.Partition(b, commFactory(cfg), analyzer.WithPostHook(orderSendsBeforeUpdates))
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, fabric: rdma.NewFabric(), servers: make(map[string]*Server),
		stepStats: make(map[string]*metrics.StepStat)}
	for _, task := range res.Tasks {
		c.stepStats[task] = &metrics.StepStat{}
	}
	for _, task := range res.Tasks {
		srv, err := c.newServer(task)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.servers[task] = srv
	}
	c.result = res
	if err := c.setupEdges(); err != nil {
		c.Close()
		return nil, err
	}
	for _, task := range res.Tasks {
		if err := c.buildExecutor(c.servers[task]); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// buildExecutor (re)builds one server's executor over its partition. The
// assignment is made under the cluster lock because recovery swaps executors
// while detector goroutines may be aborting them.
func (c *Cluster) buildExecutor(srv *Server) error {
	ex, err := exec.New(c.result.Graph, exec.Config{
		Task:          srv.Task,
		Workers:       c.cfg.ExecWorkers,
		KernelWorkers: c.cfg.KernelWorkers,
		Vars:          srv.VarStore,
		Policy:        srv.Policy,
		Env:           srv.Env,
		PollTimeout:   c.cfg.PollTimeout,
		Trace:         c.cfg.Trace,
		Hists:         srv.Hists,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	srv.Exec = ex
	c.mu.Unlock()
	return nil
}

func (c *Cluster) newServer(task string) (*Server, error) {
	dev, err := rdma.CreateDevice(c.fabric, rdma.Config{
		Endpoint:   task,
		NumCQs:     c.cfg.NumCQs,
		QPsPerPeer: c.cfg.QPsPerPeer,
	})
	if err != nil {
		return nil, err
	}
	arenaMR, err := dev.AllocateMemRegion(c.cfg.ArenaBytes)
	if err != nil {
		return nil, err
	}
	arena := alloc.NewArena(arenaMR.Bytes())
	policy := analyzer.NewTracingPolicy(arena, c.cfg.Kind.ZeroCopy())
	m := &metrics.Comm{}
	hists := &metrics.Set{}
	srv := &Server{
		Task:     task,
		Dev:      dev,
		ArenaMR:  arenaMR,
		Arena:    arena,
		Policy:   policy,
		VarStore: exec.NewVarStore(),
		Metrics:  m,
		Hists:    hists,
		stagings: make(map[string]*stagingSlot),
		clients:  make(map[string]*rpc.Client),
	}
	srv.Env = newEnv(task, c.cfg.Kind, policy, m, c.cfg.Transfer, arena, arenaMR)
	srv.Env.Hists = hists
	if c.cfg.QPSlots > 0 {
		mux, err := rdma.NewQPMux(dev, c.cfg.QPSlots, c.muxLanes())
		if err != nil {
			return nil, err
		}
		srv.Mux = mux
	}
	dev.RegisterRPC(edgeDescMethod, func(from string, req []byte) ([]byte, error) {
		e, err := srv.Env.named(string(req))
		if err != nil {
			return nil, err
		}
		return e.desc, nil
	})
	dev.RegisterRPC(edgeBackMethod, func(from string, req []byte) ([]byte, error) {
		name, desc, err := splitKeyPayload(req)
		if err != nil {
			return nil, err
		}
		back, err := rdma.UnmarshalDynSlotDesc(desc)
		if err != nil {
			return nil, err
		}
		e, err := srv.Env.named(name)
		if err != nil {
			return nil, err
		}
		return nil, e.installBack(back)
	})
	// Lease pings ride the same vanilla-RPC seam as address distribution
	// (§3.1): membership is control-plane traffic. Registered
	// unconditionally so a restarted task resumes answering immediately.
	dev.RegisterRPC(leasePingMethod, func(from string, req []byte) ([]byte, error) {
		return req, nil
	})
	return srv, nil
}

// orderSendsBeforeUpdates adds control dependencies so that a variable's
// outbound weight send happens before ApplySGD mutates it in place: within
// iteration i workers receive θᵢ while the server transitions to θᵢ₊₁,
// exactly the synchronous parameter-server schedule. The paper relies on
// "the control dependency of the loop in the graph" for the same ordering.
func orderSendsBeforeUpdates(b *graph.Builder, edges []analyzer.EdgeSpec, sends map[string]*graph.Node) error {
	applyByVar := make(map[string][]*graph.Node)
	for _, n := range b.Nodes() {
		if varName, ok := graph.UpdatedVariable(n.Op()); ok {
			applyByVar[varName] = append(applyByVar[varName], n)
		}
	}
	for _, e := range edges {
		send := sends[e.Key]
		for _, apply := range applyByVar[e.SrcNode] {
			if apply.Task() == e.SrcTask {
				b.ControlDep(apply, send)
			}
		}
	}
	return b.Err()
}

// InitVariable creates a variable's backing tensor on its server, placing
// it inside the sender staging slot when the zero-copy analysis decided the
// variable is transferred (so weight pushes need no copy at all), and calls
// init to fill it.
func (c *Cluster) InitVariable(name string, init func(*tensor.Tensor)) error {
	node, err := c.result.Graph.Node(name)
	if err != nil {
		return err
	}
	if !graph.IsVariable(node) {
		return fmt.Errorf("%w: %q is not a variable", ErrSetup, name)
	}
	srv := c.Server(node.Task())
	if srv == nil {
		return fmt.Errorf("%w: no server for task %q", ErrSetup, node.Task())
	}
	var t *tensor.Tensor
	if slot, staged := srv.stagings[name]; staged && c.cfg.Kind.ZeroCopy() {
		t = slot.tensor
	} else {
		sig := node.Sig()
		t = tensor.New(sig.DType, sig.Shape...)
	}
	if init != nil {
		init(t)
	}
	return srv.VarStore.Create(name, t)
}

// Step runs one synchronous iteration on every server concurrently. feeds
// and fetches are keyed by task; the returned values mirror fetches.
func (c *Cluster) Step(iter int, feeds map[string]map[string]*tensor.Tensor,
	fetches map[string][]string) (map[string]map[string]*tensor.Tensor, error) {
	type result struct {
		task string
		out  map[string]*tensor.Tensor
		err  error
	}
	c.mu.RLock()
	execs := make(map[string]*exec.Executor, len(c.servers))
	for task, srv := range c.servers {
		execs[task] = srv.Exec
	}
	c.mu.RUnlock()
	ch := make(chan result, len(execs))
	for task, ex := range execs {
		go func(task string, ex *exec.Executor) {
			out, err := ex.Run(iter, feeds[task], fetches[task]...)
			ch <- result{task: task, out: out, err: err}
		}(task, ex)
	}
	outs := make(map[string]map[string]*tensor.Tensor, len(execs))
	var firstErr error
	for range execs {
		r := <-ch
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("task %s: %w", r.task, r.err)
		}
		if r.err == nil {
			// Fold the completed step into the task's profile. Only clean
			// steps count — an aborted iteration's wall time says nothing
			// about steady-state step cost.
			if st := c.stepStats[r.task]; st != nil {
				br := execs[r.task].LastRun()
				st.Observe(br)
				if srv := c.Server(r.task); srv != nil {
					srv.Hists.Hist(metrics.HistStepNs).Record(br.Wall.Nanoseconds())
				}
			}
		}
		outs[r.task] = r.out
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}

// StepSummaries returns each task's accumulated step-time profile: wall-time
// distribution plus the compute/comm/poll-wait/idle breakdown. The stats
// accumulate across recovery rebuilds.
func (c *Cluster) StepSummaries() map[string]metrics.StepSummary {
	out := make(map[string]metrics.StepSummary, len(c.stepStats))
	for task, st := range c.stepStats {
		out[task] = st.Summary()
	}
	return out
}

// HistSnapshots returns each task's histogram registry snapshot (per-op
// execution latency, per-edge bytes and transfer latency, poll-wait, step
// wall time).
func (c *Cluster) HistSnapshots() map[string]metrics.SetSnapshot {
	srvs := c.serversSnapshot()
	out := make(map[string]metrics.SetSnapshot, len(srvs))
	for task, srv := range srvs {
		out[task] = srv.Hists.Snapshot()
	}
	return out
}

// abortAll fails every server's in-flight iteration with cause.
func (c *Cluster) abortAll(cause error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, srv := range c.servers {
		if srv.Exec != nil {
			srv.Exec.Abort(cause)
		}
	}
}

// serversSnapshot returns a stable view of the servers map.
func (c *Cluster) serversSnapshot() map[string]*Server {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*Server, len(c.servers))
	for t, s := range c.servers {
		out[t] = s
	}
	return out
}

// KillTask emulates a task process crash: its device drops off the fabric
// (queued and future work fails with ErrClosed, peers see ErrNoSuchPeer),
// its in-flight iteration aborts, and its in-memory state — variable store
// included — is gone for good. Only recovery can bring the task back, by
// restarting it and rolling the cluster to the last checkpoint.
func (c *Cluster) KillTask(task string) error {
	c.mu.RLock()
	srv := c.servers[task]
	c.mu.RUnlock()
	if srv == nil {
		return fmt.Errorf("%w: no server for task %q", ErrSetup, task)
	}
	if srv.rpcSrv != nil {
		srv.rpcSrv.Close()
	}
	srv.Dev.Close()
	return nil
}

// deadTasks lists tasks whose devices are closed (crashed or killed),
// sorted for determinism.
func (c *Cluster) deadTasks() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var dead []string
	for task, srv := range c.servers {
		if srv.Dev.Closed() {
			dead = append(dead, task)
		}
	}
	sort.Strings(dead)
	return dead
}

// severPeer disconnects every live server from a dead endpoint's QPs so no
// stale queued work request can chase the restarted incarnation, and so
// blocked retry loops fail fast with ErrClosed instead of spinning.
func (c *Cluster) severPeer(task string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for name, srv := range c.servers {
		if name != task && !srv.Dev.Closed() {
			if srv.Mux != nil {
				// Drop the mux's slot first so a later lease rebuilds fresh
				// QPs instead of handing out the severed group.
				srv.Mux.Invalidate(task)
			}
			srv.Dev.ClosePeer(task)
		}
	}
}

// restartTask replaces a crashed server with a fresh one under the same
// endpoint name (the old registration left the fabric on Close): new device,
// arena, environment, and an empty variable store. Callers then rebuild
// edges, the executor, and variables (from a checkpoint).
func (c *Cluster) restartTask(task string) error {
	c.mu.RLock()
	old := c.servers[task]
	c.mu.RUnlock()
	if old == nil {
		return fmt.Errorf("%w: no server for task %q", ErrSetup, task)
	}
	if !old.Dev.Closed() {
		return fmt.Errorf("%w: task %q is still alive", ErrSetup, task)
	}
	srv, err := c.newServer(task)
	if err != nil {
		return err
	}
	// The restarted incarnation keeps the task's metrics and histograms: the
	// counters describe the task, not the process incarnation, and the
	// observability consistency invariants (histogram sums == byte counters)
	// must hold across rebuilds.
	srv.Metrics = old.Metrics
	srv.Env.Metrics = old.Metrics
	srv.Hists = old.Hists
	srv.Env.Hists = old.Hists
	c.mu.Lock()
	c.servers[task] = srv
	c.mu.Unlock()
	return nil
}

// Result exposes the partitioning outcome.
func (c *Cluster) Result() *analyzer.Result { return c.result }

// Fabric exposes the emulated network, for fault injection in tests.
func (c *Cluster) Fabric() *rdma.Fabric { return c.fabric }

// Server returns the server running the given task.
func (c *Cluster) Server(task string) *Server {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.servers[task]
}

// MetricsSnapshot returns per-task communication counters.
func (c *Cluster) MetricsSnapshot() map[string]metrics.CommSnapshot {
	srvs := c.serversSnapshot()
	out := make(map[string]metrics.CommSnapshot, len(srvs))
	for task, srv := range srvs {
		if srv.Mux != nil {
			st := srv.Mux.Stats()
			srv.Metrics.SetQPStats(st.ActiveSlots, st.ActiveLeases, st.Evictions, st.Busy)
		}
		out[task] = srv.Metrics.Snapshot()
	}
	return out
}

// VarTensor returns a variable's backing tensor (from whichever server owns
// it).
func (c *Cluster) VarTensor(name string) (*tensor.Tensor, error) {
	node, err := c.result.Graph.Node(name)
	if err != nil {
		return nil, err
	}
	srv := c.Server(node.Task())
	if srv == nil {
		return nil, fmt.Errorf("%w: no server for %q", ErrSetup, node.Task())
	}
	return srv.VarStore.VarTensor(name)
}

// Close tears the cluster down: the failure detector first (so teardown is
// not mistaken for a crash), then RPC clients and servers, then devices.
func (c *Cluster) Close() {
	c.mu.RLock()
	rec := c.recovery
	c.mu.RUnlock()
	if rec != nil {
		rec.stop()
	}
	for _, srv := range c.serversSnapshot() {
		for task, cl := range srv.clients {
			cl.Close()
			delete(srv.clients, task)
		}
		if srv.rpcSrv != nil {
			srv.rpcSrv.Close()
		}
	}
	for _, srv := range c.serversSnapshot() {
		srv.Dev.Close()
	}
}

func joinKeyPayload(key string, payload []byte) []byte {
	buf := make([]byte, 0, 2+len(key)+len(payload))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	return append(buf, payload...)
}

func splitKeyPayload(req []byte) (string, []byte, error) {
	if len(req) < 2 {
		return "", nil, fmt.Errorf("%w: short key/payload frame", ErrSetup)
	}
	n := int(binary.LittleEndian.Uint16(req))
	if len(req) < 2+n {
		return "", nil, fmt.Errorf("%w: truncated key/payload frame", ErrSetup)
	}
	return string(req[2 : 2+n]), req[2+n:], nil
}
