// Command rdmadl-train runs data-parallel MLP training on an in-process
// parameter-server cluster under a chosen communication mechanism, printing
// per-iteration loss and the communication counters that distinguish the
// mechanisms (bytes moved, memcopies, serialization).
//
// Usage:
//
//	rdmadl-train [-mechanism rdma|rdma-copy|grpc-rdma|grpc-tcp]
//	             [-topology ps|sharded-ps|ring|tree] [-bucket-bytes N]
//	             [-ps-shards K] [-agg-group N]
//	             [-workers N] [-ps N] [-iters N] [-batch N]
//	             [-stripes N] [-coalesce BYTES]
//	             [-qp-slots N] [-lossy-fabric] [-chunk-drop-rate F]
//	             [-heartbeat DUR] [-checkpoint-every N]
//	             [-obs-addr HOST:PORT]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
)

func bucketCap(bucketBytes int) int {
	if bucketBytes <= 0 {
		return comm.DefaultBucketBytes
	}
	return bucketBytes
}

func parseKind(s string) (distributed.Kind, error) {
	switch s {
	case "rdma":
		return distributed.RDMA, nil
	case "rdma-copy":
		return distributed.RDMACopy, nil
	case "grpc-rdma":
		return distributed.GRPCRDMA, nil
	case "grpc-tcp":
		return distributed.GRPCTCP, nil
	default:
		return 0, fmt.Errorf("unknown mechanism %q", s)
	}
}

func main() {
	mech := flag.String("mechanism", "rdma", "rdma | rdma-copy | grpc-rdma | grpc-tcp")
	topology := flag.String("topology", "ps", "gradient exchange: ps | sharded-ps | ring | tree (sharded-ps spreads buckets across -ps-shards shard tasks; ring/tree replicate variables on every worker and all-reduce gradients; -ps is ignored)")
	bucketBytes := flag.Int("bucket-bytes", 0, "all-reduce gradient bucket capacity in bytes (0 = 64 KiB; gradients pack same-dtype buckets in backward-flush order)")
	psShards := flag.Int("ps-shards", 2, "sharded-ps: shard-task count K; buckets map to shards by the deterministic least-loaded map")
	aggGroup := flag.Int("agg-group", 0, "sharded-ps: two-level hierarchical aggregation group size (0/1 = flat; groups of N fold at a head before pushing partials to the shards)")
	workers := flag.Int("workers", 2, "worker count")
	psCount := flag.Int("ps", 2, "parameter-server count (ps topology only)")
	iters := flag.Int("iters", 30, "training iterations")
	batch := flag.Int("batch", 16, "per-worker batch size")
	kernelWorkers := flag.Int("kernel-workers", 0, "compute-kernel pool size shared by all servers (0 = GOMAXPROCS); results are bit-identical at any size")
	optimizer := flag.String("optimizer", "sgd", "sgd | momentum | adam")
	dot := flag.String("dot", "", "write the partitioned graph as Graphviz DOT to this file")
	tracePath := flag.String("trace", "", "write a chrome://tracing timeline JSON to this file")
	dropRate := flag.Float64("drop-rate", 0, "chaos: fraction of RDMA transfers to drop (retried transparently; no-op for mechanisms that bypass the emulated fabric)")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos: schedule seed (reproducible fault stream)")
	stripes := flag.Int("stripes", 1, "stripe large tensor transfers across up to N QP lanes per peer (1 = single lane)")
	coalesce := flag.Int("coalesce", 0, "batch static tensors smaller than N bytes into one coalesced write per peer pair (0 = off)")
	qpSlots := flag.Int("qp-slots", 0, "multiplex all peer channels over a bounded pool of N QP slots per device (0 = direct per-peer QPs; with N, per-task QP state is O(slots) instead of O(peers))")
	lossyFabric := flag.Bool("lossy-fabric", false, "run one-sided writes under the lossy-fabric protocol: every chunk is tagged (tensor-id, seq) and dropped chunks are NACKed and selectively retransmitted (RDMA mechanism only)")
	chunkDropRate := flag.Float64("chunk-drop-rate", 0, "chaos: fraction of tagged chunks to drop silently on the wire (requires -lossy-fabric; recovered per-chunk, never by connection replay)")
	heartbeat := flag.Duration("heartbeat", 0, "enable the lease failure detector and crash recovery, pinging each task at this period (0 = off; lease timeout is 10x the period; RDMA mechanisms only)")
	ckptEvery := flag.Int("checkpoint-every", 5, "with -heartbeat, checkpoint the cluster every N steps (rollback target after a crash)")
	obsAddr := flag.String("obs-addr", "", "serve live observability HTTP on this address (Prometheus /metrics, /trace JSON, /steps report, /debug/pprof/); empty = off")
	flag.Parse()

	kind, err := parseKind(*mech)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdmadl-train: %v\n", err)
		os.Exit(2)
	}
	topo, err := comm.ParseTopology(*topology)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdmadl-train: %v\n", err)
		os.Exit(2)
	}
	tf := trainFlags{
		Kind: kind, Topology: topo,
		DropRate: *dropRate, Stripes: *stripes, QPSlots: *qpSlots,
		LossyFabric: *lossyFabric, ChunkDropRate: *chunkDropRate,
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "ps-shards":
			tf.PSShardsSet = true
		case "agg-group":
			tf.AggGroupSet = true
		}
	})
	if err := validateFlags(tf); err != nil {
		fmt.Fprintf(os.Stderr, "rdmadl-train: %v\n", err)
		os.Exit(2)
	}
	if err := run(kind, *topology, *bucketBytes, *psShards, *aggGroup, *workers, *psCount, *iters, *batch, *kernelWorkers, *optimizer, *dot, *tracePath,
		*dropRate, *chaosSeed, *stripes, *coalesce, *qpSlots, *lossyFabric, *chunkDropRate, *heartbeat, *ckptEvery, *obsAddr); err != nil {
		fmt.Fprintf(os.Stderr, "rdmadl-train: %v\n", err)
		os.Exit(1)
	}
}

func run(kind distributed.Kind, topology string, bucketBytes, psShards, aggGroup, workers, psCount, iters, batch, kernelWorkers int, optimizer, dotPath, tracePath string,
	dropRate float64, chaosSeed int64, stripes, coalesce, qpSlots int, lossyFabric bool, chunkDropRate float64, heartbeat time.Duration, ckptEvery int, obsAddr string) error {
	var rec *trace.Recorder
	if tracePath != "" {
		rec = trace.NewRecorder(0)
	}
	job, err := distributed.BuildMLPTraining(distributed.MLPConfig{
		Workers: workers, PSCount: psCount, Batch: batch,
		In: 32, Hidden: 64, Classes: 8, LR: 0.2,
		Optimizer: optimizer,
		Topology:  topology, BucketBytes: bucketBytes,
		PSShards: psShards, AggGroup: aggGroup,
	}, 1)
	if err != nil {
		return err
	}
	cl, err := distributed.Launch(job.Builder, distributed.Config{
		Kind:          kind,
		ArenaBytes:    16 << 20,
		KernelWorkers: kernelWorkers,
		RingCfg:       transport.RingConfig{Slots: 32, SlotSize: 64 << 10},
		Trace:         rec,
		QPSlots:       qpSlots,
		LossyFabric:   lossyFabric,
		Transfer: rdma.TransferOpts{
			Stripes:           stripes,
			CoalesceThreshold: coalesce,
		},
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := job.InitAll(cl); err != nil {
		return err
	}

	if obsAddr != "" {
		obsSrv := obs.NewServer(obs.Options{
			Metrics: cl.MetricsSnapshot,
			Hists:   cl.HistSnapshots,
			Steps:   cl.StepSummaries,
			Trace:   rec,
		})
		addr, err := obsSrv.Start(obsAddr)
		if err != nil {
			return err
		}
		defer obsSrv.Close()
		fmt.Printf("obs: serving http://%s/metrics (also /trace, /steps, /debug/pprof/)\n", addr)
	}

	var inj *chaos.Injector
	if dropRate > 0 || chunkDropRate > 0 {
		inj = chaos.New(chaos.Plan{Seed: chaosSeed, DropRate: dropRate, ChunkDropRate: chunkDropRate})
		inj.Install(cl.Fabric())
		inj.Start()
		defer inj.Stop()
		if dropRate > 0 {
			fmt.Printf("chaos: dropping %.0f%% of transfers (seed %d)\n", dropRate*100, chaosSeed)
		}
		if chunkDropRate > 0 {
			fmt.Printf("chaos: dropping %.0f%% of tagged chunks on the wire (seed %d; selective retransmit heals them)\n", chunkDropRate*100, chaosSeed)
		}
	}

	feeds := job.SyntheticDataset(7)
	fetches := make(map[string][]string)
	for k, task := range job.WorkerTasks {
		fetches[task] = []string{job.LossName(k)}
	}
	if dotPath != "" {
		f, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		if err := cl.Result().Graph.WriteDot(f, "rdmadl-train"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote partitioned graph to %s\n", dotPath)
	}
	if job.Topology == comm.TopologyPS {
		fmt.Printf("mechanism=%s topology=%s workers=%d ps=%d batch=%d optimizer=%s stripes=%d coalesce=%dB\n",
			kind, job.Topology, workers, psCount, batch, optimizer, stripes, coalesce)
	} else if job.Topology == comm.TopologyShardedPS {
		fmt.Printf("mechanism=%s topology=%s workers=%d shards=%d agg-group=%d batch=%d optimizer=%s stripes=%d coalesce=%dB (-ps ignored: one task per shard)\n",
			kind, job.Topology, workers, job.ShardMap.Shards, aggGroup, batch, optimizer, stripes, coalesce)
		fmt.Printf("bucket -> shard map (capacity %dB, least-loaded):\n", bucketCap(bucketBytes))
		for _, b := range job.Buckets {
			names := make([]string, len(b.Members))
			for i, m := range b.Members {
				names[i] = m.Name
			}
			fmt.Printf("  bucket %d -> ps%d: %6dB %s %v\n",
				b.Index, job.ShardMap.Assign[b.Index], b.ByteSize(), b.DType, names)
		}
	} else {
		fmt.Printf("mechanism=%s topology=%s workers=%d batch=%d optimizer=%s stripes=%d coalesce=%dB (-ps ignored: variables replicate on every worker)\n",
			kind, job.Topology, workers, batch, optimizer, stripes, coalesce)
		fmt.Printf("gradient buckets (capacity %dB, backward-flush order):\n", bucketCap(bucketBytes))
		for _, b := range job.Buckets {
			names := make([]string, len(b.Members))
			for i, m := range b.Members {
				names[i] = m.Name
			}
			fmt.Printf("  bucket %d: %6dB %s %v\n", b.Index, b.ByteSize(), b.DType, names)
		}
	}
	fmt.Print(cl.Result().Summary())

	report := func(iter int, out map[string]map[string]*tensor.Tensor) {
		var sum float32
		for k, task := range job.WorkerTasks {
			sum += out[task][job.LossName(k)].Float32s()[0]
		}
		if iter%5 == 0 || iter == iters-1 {
			fmt.Printf("iter %3d  mean loss %.4f\n", iter, sum/float32(workers))
		}
	}
	var recov *distributed.Recovery
	if heartbeat > 0 {
		recov, err = cl.EnableRecovery(distributed.RecoveryConfig{
			Heartbeat:       distributed.HeartbeatConfig{Period: heartbeat},
			CheckpointEvery: ckptEvery,
		})
		if err != nil {
			return err
		}
		fmt.Printf("recovery: lease period %v, checkpoint every %d steps\n", heartbeat, ckptEvery)
		if err := recov.Run(iters, feeds, fetches, report); err != nil {
			return err
		}
	} else {
		for iter := 0; iter < iters; iter++ {
			out, err := cl.Step(iter, feeds, fetches)
			if err != nil {
				return err
			}
			report(iter, out)
		}
	}

	if rec != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace events to %s\n", rec.Len(), tracePath)
	}

	fmt.Println("\nper-task communication counters:")
	for task, m := range cl.MetricsSnapshot() {
		fmt.Printf("  %-9s sent=%8dB msgs=%4d memcopies=%4d copied=%8dB serialized=%8dB zerocopy=%4d retries=%4d timeouts=%2d striped=%4d segs=%4d lanes=%2d coalesced=%4d/%d\n",
			task, m.BytesSent, m.Messages, m.MemCopies, m.CopiedBytes, m.SerializedBytes, m.ZeroCopyOps,
			m.Retries, m.Timeouts, m.StripedTransfers, m.StripeSegments, m.ActiveLanes(),
			m.CoalescedMessages, m.CoalesceFlushes)
		if qpSlots > 0 || lossyFabric {
			fmt.Printf("  %-9s qp_slots_active=%2d leases=%3d evictions=%4d busy=%4d retransmit_chunks=%4d nacks=%4d\n",
				"", m.QPSlotsActive, m.QPLeases, m.QPEvictions, m.QPBusy,
				m.RetransmitChunks, m.NacksSent)
		}
	}
	if inj != nil {
		c := inj.Counters()
		fmt.Printf("chaos: injected %d faults over %d decisions\n",
			c.Total(), c.Checked[chaos.Drop]+c.Checked[chaos.ChunkDrop])
	}
	if recov != nil {
		rs := recov.Metrics()
		fmt.Printf("recovery: heartbeats=%d missed=%d expiries=%d false_suspicions=%d checkpoints=%d rollbacks=%d recoveries=%d rejoins=%d\n",
			rs.Heartbeats, rs.MissedBeats, rs.LeaseExpiries, rs.FalseSuspicions, rs.Checkpoints, rs.Rollbacks, rs.Recoveries, rs.Rejoins)
	}

	fmt.Println("\nstep-time breakdown:")
	obs.WriteStepReport(os.Stdout, cl.StepSummaries(), 0)

	comp := metrics.Compute()
	fmt.Printf("\ncompute: scratch hits=%d misses=%d discards=%d | recycle hits=%d misses=%d\n",
		comp.ScratchHits, comp.ScratchMisses, comp.ScratchDiscards,
		comp.RecycleHits, comp.RecycleMisses)
	if ks := metrics.KernelSnapshot(); len(ks) > 0 {
		fmt.Println("kernel time by operator (top 8):")
		if len(ks) > 8 {
			ks = ks[:8]
		}
		for _, s := range ks {
			fmt.Printf("  %-12s n=%5d total=%10v mean=%8v\n", s.Op, s.Count, s.Total, s.Mean())
		}
	}
	return nil
}
