package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/analyzer"
	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/rdma"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Layer probes: direct calls into each layer's public functions with the
// workloads' shapes, timed from outside, one span per probe. They are the
// same on every workload; what differs per workload is the books.

const (
	probeMinReps = 5
	probeMaxReps = 200
	probeWarm    = 3
)

var probeOpts = rdma.TransferOpts{Deadline: 30 * time.Second}

// probe times fn in batches and returns the median per-call time in
// nanoseconds. batch > 1 is for calls too short to time one by one.
func probe(tr *tracer, parent *span, layer, name string, budget time.Duration, batch int, fn func() error) (float64, error) {
	sp := tr.begin(parent, layer, name)
	defer sp.End()
	for i := 0; i < probeWarm; i++ {
		if err := fn(); err != nil {
			return 0, fmt.Errorf("probe %s.%s: %w", layer, name, err)
		}
	}
	var ns []float64
	deadline := time.Now().Add(budget)
	for len(ns) < probeMaxReps && (len(ns) < probeMinReps || time.Now().Before(deadline)) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, fmt.Errorf("probe %s.%s: %w", layer, name, err)
			}
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(batch))
	}
	return median(ns), nil
}

// probeSet runs probes and records each as a metric in the unit its name
// declares.
type probeSet struct {
	tr     *tracer
	parent *span
	res    *result
	// budget is the wall time one probe may repeat for: 1/160 of the timed
	// window, 125 ms at the default 20 s.
	budget time.Duration
	err    error
}

// run records metric = median per-call time of fn; the first error sticks.
func (p *probeSet) run(metric string, batch int, fn func() error) {
	if p.err != nil {
		return
	}
	layer, name, _ := strings.Cut(metric, ".")
	ns, err := probe(p.tr, p.parent, layer, name, p.budget, batch, fn)
	if err != nil {
		p.err = err
		return
	}
	switch findMetric(metric).Unit {
	case "ns":
		p.res.set(metric, ns)
	case "us":
		p.res.set(metric, ns/1e3)
	case "ms":
		p.res.set(metric, ns/1e6)
	default:
		p.err = fmt.Errorf("probe %s: unit is not a time", metric)
	}
}

// runProbes runs every layer probe.
func runProbes(ctx *runCtx, tr *tracer, parent *span, res *result) error {
	p := &probeSet{tr: tr, parent: tr.begin(parent, "bench", "probes"), res: res, budget: ctx.window() / 160}
	defer p.parent.End()
	probeTensor(p)
	probeLocalStep(ctx, p)
	probePartition(ctx, p)
	probeRDMA(p)
	probeControlPlane(p)
	probeServe(ctx, p)
	probeNetsim(res)
	return p.err
}

func probeTensor(p *probeSet) {
	mlp := trainPSCPU.cfg
	x := tensor.New(tensor.Float32, mlp.Batch, mlp.In)
	w := tensor.New(tensor.Float32, mlp.In, mlp.Hidden)
	h := tensor.New(tensor.Float32, mlp.Batch, mlp.Hidden)
	dw := tensor.New(tensor.Float32, mlp.In, mlp.Hidden)
	logits := tensor.New(tensor.Float32, mlp.Batch, mlp.Classes)
	probs := tensor.New(tensor.Float32, mlp.Batch, mlp.Classes)
	for _, t := range []*tensor.Tensor{x, w, h, logits} {
		t.Fill(0.01)
	}
	p.run("tensor.matmul_fwd_us", 1, func() error { return tensor.MatMul(h, x, w) })
	// The weight gradient of the same layer: dW = xᵀ · dH.
	p.run("tensor.matmul_grad_us", 1, func() error { return tensor.MatMulTransA(dw, x, h) })
	p.run("tensor.softmax_us", 8, func() error { return tensor.Softmax(probs, logits) })
}

// probeLocalStep times the training MLP on one task with no edges: the
// plain single-worker baseline that bounds the distributed step from below.
func probeLocalStep(ctx *runCtx, p *probeSet) {
	if p.err != nil {
		return
	}
	ts := trainPSCPU
	ts.cfg.Workers = 1
	inst, _, err := startTrain(ts, "ring", false, ctx.seed, nil, nil, &stageMS{})
	if err != nil {
		p.err = fmt.Errorf("probe exec.local_step_ms: %w", err)
		return
	}
	defer inst.cl.Close()
	if n := len(inst.cl.Result().Edges); n != 0 {
		p.err = fmt.Errorf("probe exec.local_step_ms: single-task graph has %d edges", n)
		return
	}
	p.run("exec.local_step_ms", 1, func() error { return inst.loop.warm(1) })
}

// stubEdgeOp stands in for a mechanism's send/recv operators so that
// analyzer.Partition can be timed on its own.
type stubEdgeOp struct {
	name string
	sig  graph.Sig
}

func (o *stubEdgeOp) Name() string { return o.name }
func (o *stubEdgeOp) InferSig([]graph.Sig) (graph.Sig, error) {
	return o.sig, nil
}

func probePartition(ctx *runCtx, p *probeSet) {
	// Partition rewrites the builder it is given, so every call gets a
	// freshly built graph; only the Partition call is timed.
	if p.err != nil {
		return
	}
	var ms []float64
	for i := 0; i < 9; i++ {
		job, err := distributed.BuildMLPTraining(trainPSCPU.cfg, ctx.seed)
		if err != nil {
			p.err = err
			return
		}
		sp := p.tr.begin(p.parent, "analyzer", "Partition")
		t := time.Now()
		_, err = analyzer.Partition(job.Builder, func(spec analyzer.EdgeSpec) (graph.Op, graph.Op, error) {
			return &stubEdgeOp{"StubSend", spec.Sig}, &stubEdgeOp{"StubRecv", spec.Sig}, nil
		})
		ms = append(ms, msSince(t))
		sp.End()
		if err != nil {
			p.err = fmt.Errorf("probe analyzer.partition_ms: %w", err)
			return
		}
	}
	p.res.set("analyzer.partition_ms", median(ms))
}

const probeA, probeB = "probeA:1", "probeB:1"

// probePair is a two-device fabric with no hooks.
type probePair struct {
	a, b       *rdma.Device
	lanes      []*rdma.Channel // a -> b
	back       *rdma.Channel   // b -> a
	closeFuncs []func()
}

func newProbePair() (*probePair, error) {
	f := rdma.NewFabric()
	pp := &probePair{}
	var err error
	if pp.a, err = rdma.CreateDevice(f, rdma.Config{Endpoint: probeA, QPsPerPeer: 4}); err != nil {
		return nil, err
	}
	if pp.b, err = rdma.CreateDevice(f, rdma.Config{Endpoint: probeB, QPsPerPeer: 4}); err != nil {
		pp.a.Close()
		return nil, err
	}
	for i := 0; i < 4; i++ {
		ch, err := pp.a.GetChannel(probeB, i)
		if err != nil {
			pp.close()
			return nil, err
		}
		pp.lanes = append(pp.lanes, ch)
	}
	if pp.back, err = pp.b.GetChannel(probeA, 0); err != nil {
		pp.close()
		return nil, err
	}
	return pp, nil
}

func (pp *probePair) close() {
	for _, f := range pp.closeFuncs {
		f()
	}
	pp.a.Close()
	pp.b.Close()
}

// staticEdge wires one static slot a -> b over `lanes` lanes.
func (pp *probePair) staticEdge(size, lanes int) (*rdma.StaticSender, *rdma.StaticReceiver, error) {
	recvMR, err := pp.b.AllocateMemRegion(rdma.StaticSlotSize(size))
	if err != nil {
		return nil, nil, err
	}
	recv, err := rdma.NewStaticReceiver(recvMR, 0, size)
	if err != nil {
		return nil, nil, err
	}
	sendMR, err := pp.a.AllocateMemRegion(rdma.StaticSlotSize(size))
	if err != nil {
		return nil, nil, err
	}
	sender, err := rdma.NewStaticSender(pp.lanes[0], sendMR, 0, recv.Desc())
	if err != nil {
		return nil, nil, err
	}
	for _, ch := range pp.lanes[1:lanes] {
		if err := sender.AddLane(ch); err != nil {
			return nil, nil, err
		}
	}
	return sender, recv, nil
}

func staticRoundTrip(s *rdma.StaticSender, r *rdma.StaticReceiver, opts rdma.TransferOpts) func() error {
	return func() error {
		if err := s.SendRetry(opts); err != nil {
			return err
		}
		if err := r.Wait(opts); err != nil {
			return err
		}
		r.Consume()
		return nil
	}
}

// dynEdge wires one dynamic edge a -> b and returns one full transfer:
// metadata write, receiver-side read of size bytes, ack.
func (pp *probePair) dynEdge(size int) (func() error, error) {
	metaMR, err := pp.b.AllocateMemRegion(rdma.DynMetaSize)
	if err != nil {
		return nil, err
	}
	recv, err := rdma.NewDynReceiver(pp.back, metaMR, 0)
	if err != nil {
		return nil, err
	}
	pp.closeFuncs = append(pp.closeFuncs, recv.Close)
	scratchMR, err := pp.a.AllocateMemRegion(rdma.DynMetaSize)
	if err != nil {
		return nil, err
	}
	sender, err := rdma.NewDynSender(pp.lanes[0], scratchMR, 0, recv.Desc())
	if err != nil {
		return nil, err
	}
	payload, err := pp.a.AllocateMemRegion(size)
	if err != nil {
		return nil, err
	}
	dst, err := pp.b.AllocateMemRegion(size)
	if err != nil {
		return nil, err
	}
	dims := []uint64{uint64(size / 4)}
	return func() error {
		if err := sender.SendRetry(payload, 0, size, uint32(tensor.Float32), dims, probeOpts); err != nil {
			return err
		}
		meta, err := recv.WaitMeta(probeOpts)
		if err != nil {
			return err
		}
		if err := recv.FetchRetry(meta, sender.ScratchDesc(), dst, 0, probeOpts); err != nil {
			return err
		}
		if !sender.PollReusable() {
			return errors.New("dyn sender not reusable after the ack completed")
		}
		return nil
	}, nil
}

// lossyEdge wires one LossySender/LossyReceiver pair and returns one send of
// size bytes with no drops.
func (pp *probePair) lossyEdge(size int) (func() error, error) {
	const tensorID = 0xBE7C
	recvMR, err := pp.b.AllocateMemRegion(rdma.LossySlotSize(size))
	if err != nil {
		return nil, err
	}
	recv, err := rdma.NewLossyReceiver(pp.back, recvMR, 0, size, tensorID, rdma.LossyReceiverConfig{})
	if err != nil {
		return nil, err
	}
	sendMR, err := pp.a.AllocateMemRegion(rdma.StaticSlotSize(size))
	if err != nil {
		return nil, err
	}
	ss, err := rdma.NewStaticSender(pp.lanes[0], sendMR, 0, recv.Desc())
	if err != nil {
		return nil, err
	}
	for _, ch := range pp.lanes[1:] {
		if err := ss.AddLane(ch); err != nil {
			return nil, err
		}
	}
	send, err := rdma.NewLossySender(ss, tensorID)
	if err != nil {
		return nil, err
	}
	pp.closeFuncs = append(pp.closeFuncs, send.Close, recv.Close)
	recv.SetSenderScratch(send.NackScratch())
	payload := make([]byte, size)
	opts := probeOpts
	opts.Stripes = len(pp.lanes)
	return func() error {
		errc := make(chan error, 1)
		go func() { errc <- send.SendRetryFrom(payload, opts) }()
		for !recv.Poll() {
			select {
			case err := <-errc:
				if err != nil {
					return err
				}
				return errors.New("lossy send returned before the receiver saw the tensor")
			default:
				runtime.Gosched()
			}
		}
		recv.Consume()
		// The receiver pumps the completion ack from Poll.
		for {
			select {
			case err := <-errc:
				return err
			default:
				recv.Poll()
				runtime.Gosched()
			}
		}
	}, nil
}

func probeRDMA(p *probeSet) {
	if p.err != nil {
		return
	}
	pp, err := newProbePair()
	if err != nil {
		p.err = err
		return
	}
	defer pp.close()
	fail := func(err error) bool {
		if err != nil && p.err == nil {
			p.err = fmt.Errorf("rdma probe setup: %w", err)
		}
		return p.err != nil
	}

	word, err := pp.a.AllocateMemRegion(rdma.FlagWordSize)
	if fail(err) {
		return
	}
	wordDst, err := pp.b.AllocateMemRegion(rdma.FlagWordSize)
	if fail(err) {
		return
	}
	p.run("rdma.memcpy_sync_us_8b", 8, func() error {
		return pp.lanes[0].MemcpySync(0, word, 0, wordDst.Descriptor(), rdma.FlagWordSize, rdma.OpWrite)
	})

	for _, c := range []struct {
		metric      string
		size, lanes int
	}{
		{"rdma.static_write_us_1k", xferSmallBytes, 1},
		{"rdma.static_write_us_8m", xferLargeBytes, 1},
		{"rdma.striped_write_us_8m", xferLargeBytes, 4},
	} {
		s, r, err := pp.staticEdge(c.size, c.lanes)
		if fail(err) {
			return
		}
		opts := probeOpts
		opts.Stripes = c.lanes
		p.run(c.metric, 1, staticRoundTrip(s, r, opts))
	}

	flush, err := pp.coalescedEdge()
	if fail(err) {
		return
	}
	p.run("rdma.coalesced_flush_us_64x1k", 1, flush)

	for _, c := range []struct {
		metric string
		size   int
	}{{"rdma.dyn_read_us_1k", xferSmallBytes}, {"rdma.dyn_read_us_8m", xferLargeBytes}} {
		xfer, err := pp.dynEdge(c.size)
		if fail(err) {
			return
		}
		p.run(c.metric, 1, xfer)
	}

	lossy, err := pp.lossyEdge(1 << 20)
	if fail(err) {
		return
	}
	p.run("rdma.lossy_send_us_1m", 1, lossy)

	mux, err := rdma.NewQPMux(pp.a, 4, 1)
	if fail(err) {
		return
	}
	p.run("rdma.mux_acquire_ns", 1000, func() error {
		lease, err := mux.Acquire(probeB)
		if err != nil {
			return err
		}
		lease.Release()
		return nil
	})
}

// coalescedEdge wires a coalesced batch slot a -> b and returns one full
// round: stage 64 x 1 KiB, flush, decode, consume, ack.
func (pp *probePair) coalescedEdge() (func() error, error) {
	capacity := wire.BatchHeaderSize + xferSmallCount*wire.SubMsgSize(xferSmallBytes)
	recvMR, err := pp.b.AllocateMemRegion(rdma.StaticSlotSize(capacity))
	if err != nil {
		return nil, err
	}
	recv, err := rdma.NewCoalescedReceiver(pp.back, recvMR, 0, capacity)
	if err != nil {
		return nil, err
	}
	sendMR, err := pp.a.AllocateMemRegion(rdma.StaticSlotSize(capacity) + rdma.FlagWordSize)
	if err != nil {
		return nil, err
	}
	sender, err := rdma.NewCoalescedSender(pp.lanes[0], sendMR, 0, recv.Desc())
	if err != nil {
		return nil, err
	}
	payload := make([]byte, xferSmallBytes)
	return func() error {
		sender.Reset()
		for m := 0; m < xferSmallCount; m++ {
			if err := sender.Stage(uint32(m), payload); err != nil {
				return err
			}
		}
		if err := sender.FlushRetry(probeOpts); err != nil {
			return err
		}
		if !recv.Poll() {
			return errors.New("coalesced batch not visible after its flush completed")
		}
		msgs, err := recv.Messages()
		if err != nil {
			return err
		}
		if len(msgs) != xferSmallCount {
			return fmt.Errorf("coalesced batch carried %d messages, want %d", len(msgs), xferSmallCount)
		}
		recv.Consume()
		if err := recv.AckRetry(sender.AckDesc(), probeOpts); err != nil {
			return err
		}
		if !sender.PollReusable() {
			return errors.New("coalesced sender not reusable after the ack completed")
		}
		return nil
	}, nil
}

// probeControlPlane covers the layers address distribution rides on.
func probeControlPlane(p *probeSet) {
	if p.err != nil {
		return
	}
	pp, err := newProbePair()
	if err != nil {
		p.err = err
		return
	}
	defer pp.close()

	pp.b.RegisterRPC("probe.echo", func(_ string, req []byte) ([]byte, error) { return req, nil })
	req := make([]byte, 64)
	p.run("rpc.call_us", 1, func() error {
		_, err := pp.lanes[0].Call("probe.echo", req, 10*time.Second)
		return err
	})

	buf := make([]byte, wire.BatchHeaderSize+xferSmallCount*wire.SubMsgSize(xferSmallBytes))
	payload := make([]byte, xferSmallBytes)
	p.run("wire.batch_encode_us_64x1k", 1, func() error {
		w, err := wire.NewBatchWriter(buf)
		if err != nil {
			return err
		}
		for m := 0; m < xferSmallCount; m++ {
			if err := w.Append(uint32(m), payload); err != nil {
				return err
			}
		}
		return nil
	})

	if p.err != nil {
		return
	}
	lis, err := transport.RingNetwork(pp.b, transport.RingConfig{}).Listen(probeB)
	if err != nil {
		p.err = err
		return
	}
	defer lis.Close()
	// The accepting side drains the ring so that Send never waits for credit
	// it will not get; closing its end of the connection ends the drainer.
	accepted := make(chan transport.Conn, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		conn, err := lis.Accept()
		accepted <- conn
		if err != nil {
			return
		}
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	conn, err := transport.RingNetwork(pp.a, transport.RingConfig{}).Dial(probeB)
	if err != nil {
		lis.Close() // fails the pending Accept
		<-drained
		p.err = err
		return
	}
	msg := make([]byte, 64<<10)
	p.run("transport.ring_send_us_64k", 1, func() error { return conn.Send(msg) })
	conn.Close()
	if peer := <-accepted; peer != nil {
		peer.Close()
	}
	<-drained
}

// probeServe times the serving plane's public calls on an idle fleet.
func probeServe(ctx *runCtx, p *probeSet) {
	if p.err != nil {
		return
	}
	sb, err := startServe(ctx.seed, 0, nil, nil, &stageMS{})
	if err != nil {
		p.err = err
		return
	}
	defer sb.fleet.Close()
	if err := sb.firstQuery(); err != nil {
		p.err = err
		return
	}
	rep := sb.fleet.Replica("replica0")
	x := tensor.New(tensor.Float32, serveBatch, serveIn)
	copy(x.Float32s(), sb.queries.Float32s())
	p.run("serve.infer_us", 1, func() error {
		ref, ok := rep.Acquire()
		if !ok {
			return errors.New("replica has no active bank")
		}
		defer ref.Release()
		_, err := rep.Infer(ref, x)
		return err
	})
	p.run("serve.publish_us", 1, func() error {
		_, err := sb.fleet.Publish()
		return err
	})
	if p.err != nil {
		return
	}
	payload := 0
	for _, vs := range serveVarShapes {
		n := 4
		for _, d := range vs.shape {
			n *= d
		}
		payload += n
	}
	us := p.res.Metrics["serve.publish_us"].Value
	p.res.set("serve.publish_mb_s", ratio(float64(payload*serveReplicas), us))
}

// probeNetsim prices train_ring_wire's gradient exchange with the closed-form
// model, under the benchmark's wire bandwidth.
func probeNetsim(res *result) {
	mlp := trainRingWire.cfg
	gradBytes := int64(mlp.In*mlp.Hidden+mlp.Hidden+mlp.Hidden*mlp.Classes+mlp.Classes) * 4
	m := netsim.NewAllReduceModel(mlp.Workers, distributed.RDMA)
	m.Params.WireGBps = nicGBps
	res.set("netsim.ring_exchange_ms_pred", m.StepUS(netsim.ARRing, gradBytes)/1e3)
}
