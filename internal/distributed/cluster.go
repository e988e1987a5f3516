package distributed

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/analyzer"
	"repro/internal/comm"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
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

	descMu     sync.Mutex
	descs      map[string][]byte // edge key -> marshaled slot descriptor
	qpCounters map[string]int    // per-peer round-robin QP assignment
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
// the word its receiver answers into (Env.installBack).
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
	factory := commFactory(cfg.Kind, cfg.Transfer.CoalesceThreshold)
	res, err := analyzer.Partition(b, factory, analyzer.WithPostHook(orderSendsBeforeUpdates))
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
	if cfg.Kind.UsesRPC() {
		err = c.setupRPCEdges(res)
	} else {
		err = c.setupRDMAEdges(res)
	}
	if err != nil {
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
		descs:    make(map[string][]byte),
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
		srv.descMu.Lock()
		defer srv.descMu.Unlock()
		d, ok := srv.descs[string(req)]
		if !ok {
			return nil, fmt.Errorf("%w: no slot descriptor for edge %q on %s", ErrSetup, req, task)
		}
		return d, nil
	})
	dev.RegisterRPC(edgeBackMethod, func(from string, req []byte) ([]byte, error) {
		key, desc, err := splitKeyPayload(req)
		if err != nil {
			return nil, err
		}
		back, err := rdma.UnmarshalDynSlotDesc(desc)
		if err != nil {
			return nil, err
		}
		return nil, srv.Env.installBack(key, back)
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

func commFactory(kind Kind, coalesceThreshold int) analyzer.CommFactory {
	return func(spec analyzer.EdgeSpec) (graph.Op, graph.Op, error) {
		if kind.UsesRPC() {
			return &rpcSendOp{spec: spec}, &rpcRecvOp{spec: spec}, nil
		}
		if coalescible(spec, coalesceThreshold) {
			return &coalescedSendOp{spec: spec}, &coalescedRecvOp{spec: spec}, nil
		}
		if spec.Sig.Static {
			return &rdmaSendOp{spec: spec}, &rdmaRecvOp{spec: spec}, nil
		}
		return &rdmaSendDynOp{spec: spec}, &rdmaRecvDynOp{spec: spec}, nil
	}
}

// coalescible reports whether an edge rides the coalesced batch path: a
// statically placed tensor below the configured threshold. The predicate is
// shared by the operator factory and setupRDMAEdges so op kinds and edge
// state never disagree.
func coalescible(spec analyzer.EdgeSpec, threshold int) bool {
	return threshold > 0 && spec.Sig.Static && spec.Sig.ByteSize() < threshold
}

// coalPlan is the deterministic batch layout for one (src, dst) task pair:
// sub-message ids are assigned by the edge's position in res.Edges, so both
// setup phases — and every server — derive identical layouts independently.
type coalPlan struct {
	key              string
	srcTask, dstTask string
	members          []analyzer.EdgeSpec // index == sub-message id
	capacity         int                 // batch framing bytes for a full batch
}

func coalPlans(res *analyzer.Result, threshold int) []*coalPlan {
	var plans []*coalPlan
	byPair := make(map[string]*coalPlan)
	for _, e := range res.Edges {
		if !coalescible(e, threshold) {
			continue
		}
		key := "coalesce/" + e.SrcTask + "->" + e.DstTask
		// Collective phases must not share a batch: a ring's reduce hop
		// k->k+1 transitively feeds the broadcast hop over the same task
		// pair, and a shared batch only flushes once ALL members staged —
		// a cycle that would deadlock the step. Keying the group by the
		// producing node's collective phase keeps each batch acyclic.
		if ph := comm.CoalescePhase(e.SrcNode); ph != "" {
			key += "#" + ph
		}
		p, ok := byPair[key]
		if !ok {
			p = &coalPlan{key: key, srcTask: e.SrcTask, dstTask: e.DstTask,
				capacity: wire.BatchHeaderSize}
			byPair[key] = p
			plans = append(plans, p)
		}
		p.members = append(p.members, e)
		p.capacity += wire.SubMsgSize(e.Sig.ByteSize())
	}
	return plans
}

// setupRDMAEdges performs the two setup phases: receivers preallocate slots
// and publish descriptors; senders fetch descriptors, build their staging
// or scratch state, and (for dynamic edges) push their scratch descriptor
// back for the ack path. With QP muxing on, every setup-time channel is a
// short-lived lease, so even the setup round never exceeds the slot cap.
func (c *Cluster) setupRDMAEdges(res *analyzer.Result) error {
	plans := coalPlans(res, c.cfg.Transfer.CoalesceThreshold)
	// Phase A: receiver-side preallocation.
	for _, e := range res.Edges {
		if coalescible(e, c.cfg.Transfer.CoalesceThreshold) {
			continue // handled per pair below
		}
		if err := c.setupRecvEdge(c.servers[e.DstTask], e); err != nil {
			return err
		}
	}
	// Phase A': coalesced batch slots, one per (src, dst) pair.
	for _, p := range plans {
		if err := c.setupCoalRecvGroup(c.servers[p.dstTask], p); err != nil {
			return err
		}
	}
	// Phase B: sender-side setup via address distribution.
	for _, e := range res.Edges {
		if coalescible(e, c.cfg.Transfer.CoalesceThreshold) {
			continue
		}
		if err := c.setupSendEdge(c.servers[e.SrcTask], e); err != nil {
			return err
		}
	}
	// Phase B': coalesced batch senders, plus ack-word distribution back to
	// the receiver group.
	for _, p := range plans {
		if err := c.setupCoalSendGroup(c.servers[p.srcTask], p); err != nil {
			return err
		}
	}
	return nil
}

// setupRecvEdge builds one edge's receiver-side state and publishes its
// slot descriptor.
func (c *Cluster) setupRecvEdge(dst *Server, e analyzer.EdgeSpec) error {
	if e.Sig.Static {
		payload := e.Sig.ByteSize()
		size := rdma.StaticSlotSize(payload)
		if c.cfg.LossyFabric {
			size = rdma.LossySlotSize(payload)
		}
		mr, err := dst.allocEdgeMR(size)
		if err != nil {
			return fmt.Errorf("edge %s: %w", e.Key, err)
		}
		var recv staticReceiver
		if c.cfg.LossyFabric {
			ch, release, err := c.chanFor(dst, e.SrcTask)
			if err != nil {
				return fmt.Errorf("edge %s: %w", e.Key, err)
			}
			defer release()
			m := dst.Metrics
			lr, err := rdma.NewLossyReceiver(ch, mr, 0, payload, edgeTensorID(e.Key),
				rdma.LossyReceiverConfig{
					OnNack: func(int) { m.AddNack() },
					Source: muxSource(dst),
				})
			if err != nil {
				return fmt.Errorf("edge %s: %w", e.Key, err)
			}
			recv = lr
		} else {
			sr, err := rdma.NewStaticReceiver(mr, 0, payload)
			if err != nil {
				return fmt.Errorf("edge %s: %w", e.Key, err)
			}
			recv = sr
		}
		dst.Env.mu.Lock()
		dst.Env.staticRecv[e.Key] = &staticRecvState{spec: e, recv: recv}
		dst.Env.mu.Unlock()
		dst.putDesc(e.Key, recv.Desc().Marshal())
		return nil
	}
	metaMR, err := dst.allocEdgeMR(rdma.DynMetaSize)
	if err != nil {
		return fmt.Errorf("edge %s: %w", e.Key, err)
	}
	ch, release, err := c.chanFor(dst, e.SrcTask)
	if err != nil {
		return fmt.Errorf("edge %s: %w", e.Key, err)
	}
	defer release()
	recv, err := rdma.NewDynReceiver(ch, metaMR, 0)
	if err != nil {
		return fmt.Errorf("edge %s: %w", e.Key, err)
	}
	if dst.Mux != nil {
		// Muxed: every fetch leases its lanes per attempt.
		recv.SetLaneSource(dst.Mux)
	} else {
		// Striping: the dyn fetch is receiver-driven, so the extra QP
		// lanes live on the receiver.
		for i := 1; i < c.stripeLanes(); i++ {
			lane, err := dst.Dev.GetChannel(e.SrcTask, dst.nextQP(e.SrcTask, c.cfg.QPsPerPeer))
			if err != nil {
				return fmt.Errorf("edge %s lane %d: %w", e.Key, i, err)
			}
			if err := recv.AddLane(lane); err != nil {
				return fmt.Errorf("edge %s lane %d: %w", e.Key, i, err)
			}
		}
	}
	dst.Env.mu.Lock()
	dst.Env.dynRecv[e.Key] = &dynRecvState{spec: e, opts: dst.Env.edgeOpts(e.Key), recv: recv}
	dst.Env.mu.Unlock()
	dst.putDesc(e.Key, recv.Desc().Marshal())
	return nil
}

// setupSendEdge builds one edge's sender-side state: descriptor fetch via
// address distribution, staging/scratch wiring, stripe lanes or mux source,
// and — on a lossy fabric — the NACK-scratch push back to the receiver.
func (c *Cluster) setupSendEdge(src *Server, e analyzer.EdgeSpec) error {
	ch, release, err := c.chanFor(src, e.DstTask)
	if err != nil {
		return fmt.Errorf("edge %s: %w", e.Key, err)
	}
	defer release()
	// Address distribution is idempotent (the handler only reads the
	// published descriptor), so transient faults are retried.
	descBytes, err := ch.CallRetry(edgeDescMethod, []byte(e.Key),
		rdma.TransferOpts{Deadline: rpcTimeout})
	if err != nil {
		return fmt.Errorf("edge %s: %w", e.Key, err)
	}
	if e.Sig.Static {
		desc, err := rdma.UnmarshalStaticSlotDesc(descBytes)
		if err != nil {
			return fmt.Errorf("edge %s: %w", e.Key, err)
		}
		slot, err := src.stagingFor(e.SrcNode, e.Sig)
		if err != nil {
			return fmt.Errorf("edge %s: %w", e.Key, err)
		}
		sender, err := rdma.NewStaticSender(ch, slot.mr, 0, desc)
		if err != nil {
			return fmt.Errorf("edge %s: %w", e.Key, err)
		}
		if src.Mux != nil {
			sender.SetLaneSource(src.Mux)
		} else {
			// Striping: extra sender-side QP lanes for the write path.
			for i := 1; i < c.stripeLanes(); i++ {
				lane, err := src.Dev.GetChannel(e.DstTask, src.nextQP(e.DstTask, c.cfg.QPsPerPeer))
				if err != nil {
					return fmt.Errorf("edge %s lane %d: %w", e.Key, i, err)
				}
				if err := sender.AddLane(lane); err != nil {
					return fmt.Errorf("edge %s lane %d: %w", e.Key, i, err)
				}
			}
		}
		st := &staticSendState{spec: e, slot: slot, sender: sender, opts: src.Env.edgeOpts(e.Key)}
		if c.cfg.LossyFabric {
			ls, err := rdma.NewLossySender(sender, edgeTensorID(e.Key))
			if err != nil {
				return fmt.Errorf("edge %s: %w", e.Key, err)
			}
			// The receiver cannot NACK until it knows where the sender's
			// NACK block lives.
			if err := pushBack(ch, e.Key, ls.NackScratch()); err != nil {
				ls.Close()
				return fmt.Errorf("edge %s: %w", e.Key, err)
			}
			st.sender = ls
		}
		src.Env.mu.Lock()
		src.Env.staticSend[e.Key] = st
		src.Env.mu.Unlock()
		if c.cfg.Kind.ZeroCopy() {
			src.Policy.BindStaging(e.SrcNode, slot.tensor)
		}
		return nil
	}
	desc, err := rdma.UnmarshalDynSlotDesc(descBytes)
	if err != nil {
		return fmt.Errorf("edge %s: %w", e.Key, err)
	}
	scratchMR, err := src.allocEdgeMR(rdma.DynMetaSize)
	if err != nil {
		return fmt.Errorf("edge %s: %w", e.Key, err)
	}
	sender, err := rdma.NewDynSender(ch, scratchMR, 0, desc)
	if err != nil {
		return fmt.Errorf("edge %s: %w", e.Key, err)
	}
	if src.Mux != nil {
		sender.SetLaneSource(src.Mux)
	}
	src.Env.mu.Lock()
	src.Env.dynSend[e.Key] = &dynSendState{spec: e, opts: src.Env.edgeOpts(e.Key), sender: sender, dev: src.Dev}
	src.Env.mu.Unlock()
	if err := pushBack(ch, e.Key, sender.ScratchDesc()); err != nil {
		return fmt.Errorf("edge %s: %w", e.Key, err)
	}
	return nil
}

// pushBack hands a receiver the address of the sender word it answers
// into: the dyn scratch block, the coalesced ack word, or the lossy NACK
// block. Idempotent (the handler overwrites the address with the same
// value), so transient faults are retried.
func pushBack(ch *rdma.Channel, key string, back rdma.DynSlotDesc) error {
	_, err := ch.CallRetry(edgeBackMethod, joinKeyPayload(key, back.Marshal()),
		rdma.TransferOpts{Deadline: rpcTimeout})
	if err != nil {
		return fmt.Errorf("back-channel distribution: %w", err)
	}
	return nil
}

// setupCoalRecvGroup builds one pair's coalesced batch slot.
func (c *Cluster) setupCoalRecvGroup(dst *Server, p *coalPlan) error {
	mr, err := dst.allocEdgeMR(rdma.StaticSlotSize(p.capacity))
	if err != nil {
		return fmt.Errorf("coalesce group %s: %w", p.key, err)
	}
	ch, release, err := c.chanFor(dst, p.srcTask)
	if err != nil {
		return fmt.Errorf("coalesce group %s: %w", p.key, err)
	}
	defer release()
	recv, err := rdma.NewCoalescedReceiver(ch, mr, 0, p.capacity)
	if err != nil {
		return fmt.Errorf("coalesce group %s: %w", p.key, err)
	}
	if dst.Mux != nil {
		recv.SetLaneSource(dst.Mux)
	}
	g := &coalRecvGroup{key: p.key, recv: recv, pending: make(map[uint32][]byte)}
	dst.Env.mu.Lock()
	dst.Env.coalRecvGroups[p.key] = g
	for id, e := range p.members {
		dst.Env.coalRecvEdges[e.Key] = &coalRecvEdge{spec: e, group: g, id: uint32(id)}
	}
	dst.Env.mu.Unlock()
	dst.putDesc(p.key, recv.Desc().Marshal())
	return nil
}

// setupCoalSendGroup builds one pair's coalesced batch sender and pushes
// the reuse-ack word back to the receiver group.
func (c *Cluster) setupCoalSendGroup(src *Server, p *coalPlan) error {
	ch, release, err := c.chanFor(src, p.dstTask)
	if err != nil {
		return fmt.Errorf("coalesce group %s: %w", p.key, err)
	}
	defer release()
	descBytes, err := ch.CallRetry(edgeDescMethod, []byte(p.key),
		rdma.TransferOpts{Deadline: rpcTimeout})
	if err != nil {
		return fmt.Errorf("coalesce group %s: %w", p.key, err)
	}
	desc, err := rdma.UnmarshalStaticSlotDesc(descBytes)
	if err != nil {
		return fmt.Errorf("coalesce group %s: %w", p.key, err)
	}
	mr, err := src.allocEdgeMR(rdma.StaticSlotSize(desc.PayloadSize) + rdma.FlagWordSize)
	if err != nil {
		return fmt.Errorf("coalesce group %s: %w", p.key, err)
	}
	sender, err := rdma.NewCoalescedSender(ch, mr, 0, desc)
	if err != nil {
		return fmt.Errorf("coalesce group %s: %w", p.key, err)
	}
	if src.Mux != nil {
		sender.SetLaneSource(src.Mux)
	}
	g := &coalSendGroup{key: p.key, sender: sender, members: len(p.members), opts: src.Env.edgeOpts(p.key)}
	src.Env.mu.Lock()
	src.Env.coalSendGroups[p.key] = g
	for id, e := range p.members {
		src.Env.coalSendEdges[e.Key] = &coalSendEdge{spec: e, group: g, id: uint32(id)}
	}
	src.Env.mu.Unlock()
	if err := pushBack(ch, p.key, sender.AckDesc()); err != nil {
		return fmt.Errorf("coalesce group %s: %w", p.key, err)
	}
	return nil
}

// stripeLanes is how many QP lanes each striped transfer edge gets
// (clamped the same way the transfer layer clamps TransferOpts.Stripes).
func (c *Cluster) stripeLanes() int {
	s := c.cfg.Transfer.Stripes
	if s > rdma.MaxStripes {
		s = rdma.MaxStripes
	}
	return s
}

// muxLanes is the per-lease lane count when QP muxing is on: the stripe
// lane count, at least 1, clamped to the device's QPs per peer (a mux slot
// can hand out at most one peer connection's worth of QPs).
func (c *Cluster) muxLanes() int {
	lanes := c.stripeLanes()
	if lanes < 1 {
		lanes = 1
	}
	qpp := c.cfg.QPsPerPeer
	if qpp == 0 {
		qpp = 4
	}
	if lanes > qpp {
		lanes = qpp
	}
	return lanes
}

// chanFor resolves a channel to peer for setup-time traffic: a short mux
// lease (released via the returned func) when muxing is on, else a direct
// round-robin QP. Senders and receivers built on a leased channel must be
// given the mux as their lane source before the lease is released — after
// that the constructor channel only names the peer, and every transfer
// re-leases live lanes per attempt.
func (c *Cluster) chanFor(s *Server, peer string) (*rdma.Channel, func(), error) {
	if s.Mux != nil {
		lanes, release, err := s.Mux.AcquireLanes(peer)
		if err != nil {
			return nil, nil, err
		}
		return lanes[0], release, nil
	}
	ch, err := s.Dev.GetChannel(peer, s.nextQP(peer, c.cfg.QPsPerPeer))
	if err != nil {
		return nil, nil, err
	}
	return ch, func() {}, nil
}

// muxSource returns the server's mux as a lane source, or a nil interface
// when muxing is off (a plain `s.Mux` would be a typed nil the rdma layer
// cannot distinguish from a live source).
func muxSource(s *Server) rdma.LaneSource {
	if s.Mux == nil {
		return nil
	}
	return s.Mux
}

// edgeTensorID derives the stable non-zero tensor identity the lossy
// protocol tags every chunk with from the edge key. Both ends hash the
// same key, so no extra exchange is needed.
func edgeTensorID(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	id := h.Sum64()
	if id == 0 {
		id = 1
	}
	return id
}

// stagingFor returns (or creates) the shared sender staging slot for a
// source node; fan-out edges to several destinations share it.
func (s *Server) stagingFor(srcNode string, sig graph.Sig) (*stagingSlot, error) {
	s.Env.mu.Lock()
	defer s.Env.mu.Unlock()
	if slot, ok := s.Env.stagings[srcNode]; ok {
		return slot, nil
	}
	slot, err := newStagingSlot(s.Dev, sig.DType, sig.Shape)
	if err != nil {
		return nil, err
	}
	s.Env.stagings[srcNode] = slot
	return slot, nil
}

// allocEdgeMR allocates a region scoped to the current edge-setup round and
// records it for teardownEdges to free.
func (s *Server) allocEdgeMR(size int) (*rdma.MemRegion, error) {
	mr, err := s.Dev.AllocateMemRegion(size)
	if err != nil {
		return nil, err
	}
	s.descMu.Lock()
	s.edgeMRs = append(s.edgeMRs, mr)
	s.descMu.Unlock()
	return mr, nil
}

func (s *Server) putDesc(key string, d []byte) {
	s.descMu.Lock()
	defer s.descMu.Unlock()
	s.descs[key] = d
}

// nextQP spreads edges over the QPs to a peer in round-robin order,
// following the paper's load-balancing guidance (§3.1).
func (s *Server) nextQP(peer string, qpsPerPeer int) int {
	if qpsPerPeer == 0 {
		qpsPerPeer = 4
	}
	s.descMu.Lock()
	defer s.descMu.Unlock()
	if s.qpCounters == nil {
		s.qpCounters = make(map[string]int)
	}
	idx := s.qpCounters[peer] % qpsPerPeer
	s.qpCounters[peer]++
	return idx
}

// setupRPCEdges builds the gRPC-baseline data path: one RPC server per
// machine on the chosen substrate, one client per (src, dst) pair.
func (c *Cluster) setupRPCEdges(res *analyzer.Result) error {
	// ringCfgFor wires the server's outbound ring-send latency histogram
	// into the transport hook (fragmentation + credit waits + retries).
	ringCfgFor := func(srv *Server) transport.RingConfig {
		cfg := c.cfg.RingCfg
		h := srv.Hists.Hist(metrics.HistRingSendNs)
		cfg.OnSend = func(bytes int, d time.Duration) { h.Record(d.Nanoseconds()) }
		return cfg
	}
	listenNet := func(srv *Server) transport.Network {
		if c.cfg.Kind == GRPCTCP {
			return transport.TCPNetwork()
		}
		return transport.RingNetwork(srv.Dev, ringCfgFor(srv))
	}
	for _, task := range res.Tasks {
		srv := c.servers[task]
		l, err := listenNet(srv).Listen("")
		if err != nil {
			return err
		}
		srv.rpcSrv = rpc.NewServer(l)
		registerPushService(srv.Env, srv.rpcSrv.Register)
		srv.rpcSrv.Start()
		srv.rpcAddr = srv.rpcSrv.Addr()
	}
	for _, e := range res.Edges {
		src, dst := c.servers[e.SrcTask], c.servers[e.DstTask]
		src.Env.mu.Lock()
		_, have := src.Env.rpcClients[e.DstTask]
		src.Env.mu.Unlock()
		if have {
			continue
		}
		var net transport.Network
		if c.cfg.Kind == GRPCTCP {
			net = transport.TCPNetwork()
		} else {
			net = transport.RingNetwork(src.Dev, ringCfgFor(src))
		}
		client, err := rpc.Dial(net, dst.rpcAddr)
		if err != nil {
			return fmt.Errorf("edge %s: dial %s: %w", e.Key, dst.rpcAddr, err)
		}
		src.Env.mu.Lock()
		src.Env.rpcClients[e.DstTask] = client
		src.Env.mu.Unlock()
	}
	return nil
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
	srv.Env.mu.Lock()
	slot, staged := srv.Env.stagings[name]
	srv.Env.mu.Unlock()
	if staged && c.cfg.Kind.ZeroCopy() {
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

// teardownEdges drops every live server's per-round edge state: operator
// lookup maps, dynamic receivers (with their ack regions and deferred arena
// buffers), dynamic-send scratch, and all tracked edge regions. Staging
// slots survive — variables live in them, and §3.2 address stability only
// has to hold within one setup round, because rebuildEdges redistributes
// every descriptor.
func (c *Cluster) teardownEdges() {
	for _, srv := range c.serversSnapshot() {
		if srv.Dev.Closed() {
			continue
		}
		srv.Env.mu.Lock()
		staticSends := srv.Env.staticSend
		staticRecvs := srv.Env.staticRecv
		dynRecvs := srv.Env.dynRecv
		dynSends := srv.Env.dynSend
		coalSends := srv.Env.coalSendGroups
		srv.Env.staticSend = make(map[string]*staticSendState)
		srv.Env.staticRecv = make(map[string]*staticRecvState)
		srv.Env.dynSend = make(map[string]*dynSendState)
		srv.Env.dynRecv = make(map[string]*dynRecvState)
		srv.Env.coalSendGroups = make(map[string]*coalSendGroup)
		srv.Env.coalRecvGroups = make(map[string]*coalRecvGroup)
		srv.Env.coalSendEdges = make(map[string]*coalSendEdge)
		srv.Env.coalRecvEdges = make(map[string]*coalRecvEdge)
		srv.Env.mu.Unlock()
		// A group torn down mid-batch still holds completion callbacks from
		// the aborted step; fail them so no waiter is left parked forever.
		for _, g := range coalSends {
			g.failPending(fmt.Errorf("%w: coalesce group %s torn down for edge rebuild", ErrComm, g.key))
		}
		// A lossy sender owns a NACK block outside the edgeMR list, and a
		// lossy receiver may still be re-posting a failed ack: Close frees
		// the one and stops the other.
		for _, st := range staticSends {
			if ls, ok := st.sender.(*rdma.LossySender); ok {
				ls.Close()
			}
		}
		for _, st := range staticRecvs {
			if lr, ok := st.recv.(*rdma.LossyReceiver); ok {
				lr.Close()
			}
		}
		for _, st := range dynRecvs {
			st.mu.Lock()
			pending := st.pendingFree
			st.pendingFree = nil
			st.mu.Unlock()
			for _, p := range pending {
				_ = srv.Arena.Free(p.buf)
			}
		}
		for _, st := range dynSends {
			if st.scratch != nil {
				st.dev.FreeMemRegion(st.scratch)
			}
		}
		srv.descMu.Lock()
		mrs := srv.edgeMRs
		srv.edgeMRs = nil
		srv.descs = make(map[string][]byte)
		srv.descMu.Unlock()
		for _, mr := range mrs {
			srv.Dev.FreeMemRegion(mr)
		}
	}
}

// rebuildEdges re-runs the full edge setup — receive slots, stripe lanes,
// coalesce groups, address distribution — over the current server set.
func (c *Cluster) rebuildEdges() error {
	c.teardownEdges()
	return c.setupRDMAEdges(c.result)
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
		srv.Env.mu.Lock()
		for _, cl := range srv.Env.rpcClients {
			cl.Close()
		}
		srv.Env.rpcClients = make(map[string]*rpc.Client)
		srv.Env.mu.Unlock()
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
