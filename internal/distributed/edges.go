package distributed

import (
	"fmt"
	"time"

	"repro/internal/analyzer"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Edge setup: plan builds every server's edge table in one pass, then each
// end is opened — receive ends first (slots allocated, descriptors
// published), then send ends (descriptors fetched by name, staging and
// lanes wired, the receiver's answer word pushed back). teardownEdges and
// rebuildEdges redo the round after a crash.

// setupEdges runs the full setup round over the current server set. With
// QP muxing on, every setup-time channel is a short-lived lease, so even
// the setup round never exceeds the slot cap.
func (c *Cluster) setupEdges() error {
	srvs := c.serversSnapshot()
	c.plan(srvs)
	if c.cfg.Kind.UsesRPC() {
		return c.openRPC(srvs)
	}
	for _, spec := range c.result.Edges {
		dst := srvs[spec.DstTask]
		if err := c.openRecv(dst, dst.Env.edges[spec.ID]); err != nil {
			return fmt.Errorf("edge %s: %w", spec.Key, err)
		}
	}
	for _, spec := range c.result.Edges {
		src := srvs[spec.SrcTask]
		if err := c.openSend(src, src.Env.edges[spec.ID]); err != nil {
			return fmt.Errorf("edge %s: %w", spec.Key, err)
		}
	}
	return nil
}

// plan installs a fresh edge table on every server: one record per end,
// with its kind, transfer opts and histogram handles resolved (so Hists
// must already be final — restartTask carries them over first), and the
// coalesce groups laid out. Sub-message ids follow res.Edges order, so both
// ends of a group derive the same batch layout.
func (c *Cluster) plan(srvs map[string]*Server) {
	for _, srv := range srvs {
		srv.Env.edges = make([]*edge, len(c.result.Edges))
		srv.Env.byName = make(map[string]*edge)
		srv.Env.sendGroups = nil
	}
	type group struct {
		send *coalSendGroup
		recv *coalRecvGroup
	}
	groups := make(map[string]group)
	for _, spec := range c.result.Edges {
		src, dst := srvs[spec.SrcTask].Env, srvs[spec.DstTask].Env
		kind := kindOf(c.cfg, spec)
		s := &edge{spec: spec, kind: kind, sent: src.Hists.Family(metrics.HistEdgeSentBytes).With(spec.Key)}
		r := &edge{spec: spec, kind: kind, recvd: dst.Hists.Family(metrics.HistEdgeRecvBytes).With(spec.Key)}
		switch kind {
		case staticEdge, lossyEdge:
			s.opts, s.xfer = src.edgeOpts(spec.Key)
		case dynEdge:
			s.opts, s.xfer = src.edgeOpts(spec.Key)
			r.opts, r.xfer = dst.edgeOpts(spec.Key)
		case coalEdge:
			key := coalKey(spec)
			g, ok := groups[key]
			if !ok {
				g = group{&coalSendGroup{key: key}, &coalRecvGroup{key: key,
					capacity: wire.BatchHeaderSize, pending: make(map[uint32][]byte)}}
				g.send.opts, _ = src.edgeOpts(key)
				groups[key] = g
				src.sendGroups = append(src.sendGroups, g.send)
				dst.byName[key] = r
			}
			s.sendGroup, r.recvGroup = g.send, g.recv
			s.sub = uint32(g.send.members)
			r.sub = s.sub
			g.send.members++
			g.recv.capacity += wire.SubMsgSize(spec.Sig.ByteSize())
		case rpcEdge:
			r.mb = newMailbox()
		}
		src.edges[spec.ID], dst.edges[spec.ID] = s, r
		dst.byName[spec.Key] = r
	}
}

// coalKey names the batch a coalesced edge joins: one per (src, dst) task
// pair and collective phase. Collective phases must not share a batch: a
// ring's reduce hop k->k+1 transitively feeds the broadcast hop over the
// same task pair, and a shared batch only flushes once ALL members staged —
// a cycle that would deadlock the step. Keying the group by the producing
// node's collective phase keeps each batch acyclic.
func coalKey(spec analyzer.EdgeSpec) string {
	key := "coalesce/" + spec.SrcTask + "->" + spec.DstTask
	if ph := comm.CoalescePhase(spec.SrcNode); ph != "" {
		key += "#" + ph
	}
	return key
}

// openRecv builds a receive end: the slot its sender writes into and the
// descriptor the sender fetches. A coalesce group's batch slot opens with
// its first member.
func (c *Cluster) openRecv(dst *Server, e *edge) error {
	if e.kind == coalEdge && e.sub > 0 {
		return nil
	}
	payload := e.spec.Sig.ByteSize()
	size := rdma.StaticSlotSize(payload)
	switch e.kind {
	case lossyEdge:
		size = rdma.LossySlotSize(payload)
	case dynEdge:
		size = rdma.DynMetaSize
	case coalEdge:
		size = rdma.StaticSlotSize(e.recvGroup.capacity)
	}
	mr, err := dst.allocEdgeMR(size)
	if err != nil {
		return err
	}
	if e.kind == staticEdge {
		sr, err := rdma.NewStaticReceiver(mr, 0, payload)
		if err != nil {
			return err
		}
		e.recv, e.desc = sr, sr.Desc().Marshal()
		return nil
	}
	ch, release, err := c.chanFor(dst, e.spec.SrcTask)
	if err != nil {
		return err
	}
	defer release()
	switch e.kind {
	case lossyEdge:
		m := dst.Metrics
		lr, err := rdma.NewLossyReceiver(ch, mr, 0, payload, e.tensorID(), rdma.LossyReceiverConfig{
			OnNack: func(int) { m.AddNack() },
			Source: muxSource(dst),
		})
		if err != nil {
			return err
		}
		e.recv, e.desc = lr, lr.Desc().Marshal()
	case dynEdge:
		recv, err := rdma.NewDynReceiver(ch, mr, 0)
		if err != nil {
			return err
		}
		// Striping: the dyn fetch is receiver-driven, so the extra QP lanes
		// live on the receiver.
		if err := c.addLanes(dst, e.spec.SrcTask, recv); err != nil {
			return err
		}
		e.dynRecv, e.desc = recv, recv.Desc().Marshal()
	case coalEdge:
		g := e.recvGroup
		if g.recv, err = rdma.NewCoalescedReceiver(ch, mr, 0, g.capacity); err != nil {
			return err
		}
		if dst.Mux != nil {
			g.recv.SetLaneSource(dst.Mux)
		}
		e.desc = g.recv.Desc().Marshal()
	}
	return nil
}

// openSend builds a send end: it fetches the receiver's descriptor by the
// end's wire name, wires the sender over staging, scratch or batch memory,
// and pushes back the word the receiver answers into — a lossy NACK block,
// a dyn scratch block, or a batch ack word. A coalesce group's sender opens
// with its first member.
func (c *Cluster) openSend(src *Server, e *edge) error {
	if e.kind == coalEdge && e.sub > 0 {
		return nil
	}
	ch, release, err := c.chanFor(src, e.spec.DstTask)
	if err != nil {
		return err
	}
	defer release()
	// Address distribution and the back push are idempotent (the handlers
	// only read the published descriptor or overwrite the address with the
	// same value), so transient faults are retried.
	callOpts := rdma.TransferOpts{Deadline: rpcTimeout}
	name := e.spec.Key
	if e.kind == coalEdge {
		name = e.sendGroup.key
	}
	descBytes, err := ch.CallRetry(edgeDescMethod, []byte(name), callOpts)
	if err != nil {
		return err
	}
	var back rdma.DynSlotDesc
	switch e.kind {
	case dynEdge:
		desc, err := rdma.UnmarshalDynSlotDesc(descBytes)
		if err != nil {
			return err
		}
		scratchMR, err := src.allocEdgeMR(rdma.DynMetaSize)
		if err != nil {
			return err
		}
		if e.dynSend, err = rdma.NewDynSender(ch, scratchMR, 0, desc); err != nil {
			return err
		}
		if src.Mux != nil {
			e.dynSend.SetLaneSource(src.Mux)
		}
		e.dev, back = src.Dev, e.dynSend.ScratchDesc()
	case coalEdge:
		desc, err := rdma.UnmarshalStaticSlotDesc(descBytes)
		if err != nil {
			return err
		}
		mr, err := src.allocEdgeMR(rdma.StaticSlotSize(desc.PayloadSize) + rdma.FlagWordSize)
		if err != nil {
			return err
		}
		g := e.sendGroup
		if g.sender, err = rdma.NewCoalescedSender(ch, mr, 0, desc); err != nil {
			return err
		}
		if src.Mux != nil {
			g.sender.SetLaneSource(src.Mux)
		}
		back = g.sender.AckDesc()
	default: // static, lossy
		desc, err := rdma.UnmarshalStaticSlotDesc(descBytes)
		if err != nil {
			return err
		}
		slot, err := src.stagingFor(e.spec.SrcNode, e.spec.Sig)
		if err != nil {
			return err
		}
		sender, err := rdma.NewStaticSender(ch, slot.mr, 0, desc)
		if err != nil {
			return err
		}
		// Striping: extra sender-side QP lanes for the write path.
		if err := c.addLanes(src, e.spec.DstTask, sender); err != nil {
			return err
		}
		e.slot, e.sender = slot, sender
		if c.cfg.Kind.ZeroCopy() {
			src.Policy.BindStaging(e.spec.SrcNode, slot.tensor)
		}
		if e.kind == staticEdge {
			return nil
		}
		ls, err := rdma.NewLossySender(sender, e.tensorID())
		if err != nil {
			return err
		}
		// Set before the push, so a teardown closes it whatever happens next.
		e.sender, back = ls, ls.NackScratch()
	}
	if _, err := ch.CallRetry(edgeBackMethod, joinKeyPayload(name, back.Marshal()), callOpts); err != nil {
		return fmt.Errorf("back-channel distribution: %w", err)
	}
	return nil
}

// addLanes gives a striped endpoint its extra QP lanes to peer or, with QP
// muxing on, the mux to lease lanes from on every transfer attempt.
func (c *Cluster) addLanes(s *Server, peer string, l interface {
	SetLaneSource(rdma.LaneSource)
	AddLane(*rdma.Channel) error
}) error {
	if s.Mux != nil {
		l.SetLaneSource(s.Mux)
		return nil
	}
	for i := 1; i < c.stripeLanes(); i++ {
		lane, err := s.Dev.GetChannel(peer, s.nextQP(peer, c.cfg.QPsPerPeer))
		if err == nil {
			err = l.AddLane(lane)
		}
		if err != nil {
			return fmt.Errorf("lane %d: %w", i, err)
		}
	}
	return nil
}

// openRPC builds the gRPC-baseline data path: one RPC server per machine
// on the chosen substrate, one client per (src, dst) pair, shared by every
// edge between them.
func (c *Cluster) openRPC(srvs map[string]*Server) error {
	netFor := func(srv *Server) transport.Network {
		if c.cfg.Kind == GRPCTCP {
			return transport.TCPNetwork()
		}
		// The ring-send latency histogram rides the transport hook
		// (fragmentation + credit waits + retries).
		cfg := c.cfg.RingCfg
		h := srv.Hists.Hist(metrics.HistRingSendNs)
		cfg.OnSend = func(bytes int, d time.Duration) { h.Record(d.Nanoseconds()) }
		return transport.RingNetwork(srv.Dev, cfg)
	}
	for _, task := range c.result.Tasks {
		srv := srvs[task]
		l, err := netFor(srv).Listen("")
		if err != nil {
			return err
		}
		srv.rpcSrv = rpc.NewServer(l)
		registerPushService(srv.Env, srv.rpcSrv.Register)
		srv.rpcSrv.Start()
		srv.rpcAddr = srv.rpcSrv.Addr()
	}
	for _, spec := range c.result.Edges {
		src, dst := srvs[spec.SrcTask], srvs[spec.DstTask]
		client, ok := src.clients[spec.DstTask]
		if !ok {
			var err error
			if client, err = rpc.Dial(netFor(src), dst.rpcAddr); err != nil {
				return fmt.Errorf("edge %s: dial %s: %w", spec.Key, dst.rpcAddr, err)
			}
			src.clients[spec.DstTask] = client
		}
		src.Env.edges[spec.ID].client = client
	}
	return nil
}

// teardownEdges drops every live server's edge round: each table is
// replaced (plan installs the next), parked coalesce waiters fail, lossy
// ends stop, dyn receive ends return their deferred arena buffers, dyn
// send scratch and every tracked edge region is freed. Staging slots
// survive — variables live in them, and §3.2 address stability only has to
// hold within one setup round, because rebuildEdges redistributes every
// descriptor.
func (c *Cluster) teardownEdges() {
	for _, srv := range c.serversSnapshot() {
		if srv.Dev.Closed() {
			continue
		}
		env := srv.Env
		edges, groups := env.edges, env.sendGroups
		env.edges, env.byName, env.sendGroups = nil, nil, nil
		// A group torn down mid-batch still holds completion callbacks from
		// the aborted step; fail them so no waiter is left parked forever.
		for _, g := range groups {
			g.failPending(fmt.Errorf("%w: coalesce group %s torn down for edge rebuild", ErrComm, g.key))
		}
		for _, e := range edges {
			if e == nil {
				continue
			}
			// A lossy sender owns a NACK block outside the edgeMR list, and
			// a lossy receiver may still be re-posting a failed ack: Close
			// frees the one and stops the other.
			if ls, ok := e.sender.(*rdma.LossySender); ok {
				ls.Close()
			}
			if lr, ok := e.recv.(*rdma.LossyReceiver); ok {
				lr.Close()
			}
			e.mu.Lock()
			pending := e.pendingFree
			e.pendingFree = nil
			e.mu.Unlock()
			for _, p := range pending {
				_ = srv.Arena.Free(p.buf)
			}
			if e.scratch != nil {
				srv.Dev.FreeMemRegion(e.scratch)
			}
		}
		for _, mr := range srv.edgeMRs {
			srv.Dev.FreeMemRegion(mr)
		}
		srv.edgeMRs = nil
	}
}

// rebuildEdges re-runs the full edge setup — receive slots, stripe lanes,
// coalesce groups, address distribution — over the current server set.
func (c *Cluster) rebuildEdges() error {
	c.teardownEdges()
	return c.setupEdges()
}

// stripeLanes is how many QP lanes each striped transfer edge gets
// (clamped the same way the transfer layer clamps TransferOpts.Stripes).
func (c *Cluster) stripeLanes() int {
	return min(c.cfg.Transfer.Stripes, rdma.MaxStripes)
}

// muxLanes is the per-lease lane count when QP muxing is on: the stripe
// lane count, at least 1, clamped to the device's QPs per peer (a mux slot
// can hand out at most one peer connection's worth of QPs).
func (c *Cluster) muxLanes() int {
	qpp := c.cfg.QPsPerPeer
	if qpp == 0 {
		qpp = 4
	}
	return min(max(c.stripeLanes(), 1), qpp)
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

// stagingFor returns (or creates) the shared sender staging slot for a
// source node; fan-out edges to several destinations share it.
func (s *Server) stagingFor(srcNode string, sig graph.Sig) (*stagingSlot, error) {
	if slot, ok := s.stagings[srcNode]; ok {
		return slot, nil
	}
	slot, err := newStagingSlot(s.Dev, sig.DType, sig.Shape)
	if err != nil {
		return nil, err
	}
	s.stagings[srcNode] = slot
	return slot, nil
}

// allocEdgeMR allocates a region scoped to the current edge-setup round and
// records it for teardownEdges to free.
func (s *Server) allocEdgeMR(size int) (*rdma.MemRegion, error) {
	mr, err := s.Dev.AllocateMemRegion(size)
	if err != nil {
		return nil, err
	}
	s.edgeMRs = append(s.edgeMRs, mr)
	return mr, nil
}

// nextQP spreads edges over the QPs to a peer in round-robin order,
// following the paper's load-balancing guidance (§3.1).
func (s *Server) nextQP(peer string, qpsPerPeer int) int {
	if qpsPerPeer == 0 {
		qpsPerPeer = 4
	}
	if s.qpCounters == nil {
		s.qpCounters = make(map[string]int)
	}
	idx := s.qpCounters[peer] % qpsPerPeer
	s.qpCounters[peer]++
	return idx
}
