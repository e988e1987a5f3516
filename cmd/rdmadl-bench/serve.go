package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distributed"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// serve_fleet sizing. Closed loop with stated client counts: an open-loop
// generator at 4-6k qps was tried while sizing and its median moved by a
// tenth between identical runs on two cores (timer wake-ups plus generator
// goroutine churn). 32 clients in the full phase, not 16, keep two full
// batches in flight, so dispatching to both replicas in parallel would show.
const (
	serveReplicas      = 2
	serveBatch         = 16
	serveIn            = 256
	serveHidden        = 512
	serveClasses       = 64
	serveMaxQueue      = 256
	servePublishEvery  = 100 * time.Millisecond
	serveSparseClients = 4
	serveFullClients   = 32
	serveQueryVectors  = 64
)

var serveVarShapes = []struct {
	name  string
	shape []int
}{
	{"w1", []int{serveIn, serveHidden}},
	{"b1", []int{serveHidden}},
	{"w2", []int{serveHidden, serveClasses}},
	{"b2", []int{serveClasses}},
}

// fillWeights writes version v's weights: a pure function of (seed, v), so
// the verifier can rebuild any version after the fact.
func fillWeights(seed int64, v uint64, into func(name string) *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(v)))
	for _, vs := range serveVarShapes {
		tensor.RandomUniform(into(vs.name), rng, 0.1)
	}
}

// referenceForward is the forward pass the replies are compared against,
// computed with the tensor kernels directly — no graph, executor, bank or
// frontend — on all query vectors at once. Kernels accumulate per output row
// in a fixed order, so a row's bits do not depend on the batch it rode in.
func referenceForward(w map[string]*tensor.Tensor, x *tensor.Tensor) (*tensor.Tensor, error) {
	rows := x.Shape()[0]
	h := tensor.New(tensor.Float32, rows, serveHidden)
	logits := tensor.New(tensor.Float32, rows, serveClasses)
	probs := tensor.New(tensor.Float32, rows, serveClasses)
	steps := []func() error{
		func() error { return tensor.MatMul(h, x, w["w1"]) },
		func() error { return tensor.AddBias(h, w["b1"]) },
		func() error { return tensor.ReLU(h, h) },
		func() error { return tensor.MatMul(logits, h, w["w2"]) },
		func() error { return tensor.AddBias(logits, w["b2"]) },
		func() error { return tensor.Softmax(probs, logits) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return probs, nil
}

// hashRow is FNV-1a over a reply row's float bits.
func hashRow(row []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range row {
		h ^= uint64(math.Float32bits(v))
		h *= 1099511628211
	}
	return h
}

// reply is what a client keeps of one answered query, for verification after
// the window (verifying in line would put a forward pass per reply on the
// two cores being measured).
type reply struct {
	query   uint16
	version uint32
	hash    uint64
}

// serveBench is one serving fleet with its publisher and query set.
type serveBench struct {
	seed    int64
	fleet   *distributed.ServingFleet
	vars    *exec.VarStore
	met     *metrics.Serve
	hists   *metrics.Set
	queries *tensor.Tensor // [serveQueryVectors, serveIn]

	// entryNs[v] is when Publish for version v was entered; firstNs[v] when
	// the first reply carrying v arrived. Both since `epoch`.
	epoch   time.Time
	entryNs []atomic.Int64
	firstNs []atomic.Int64

	lagMaxNs atomic.Int64
}

func newServeQueries(seed int64) *tensor.Tensor {
	q := tensor.New(tensor.Float32, serveQueryVectors, serveIn)
	tensor.RandomUniform(q, rand.New(rand.NewSource(seed+7)), 1)
	return q
}

// startServe builds the fleet and publishes version 1.
func startServe(seed int64, maxVersions int, tr *tracer, parent *span, st *stageMS) (*serveBench, error) {
	vars := exec.NewVarStore()
	for _, vs := range serveVarShapes {
		if err := vars.Create(vs.name, tensor.New(tensor.Float32, vs.shape...)); err != nil {
			return nil, err
		}
	}
	sb := &serveBench{seed: seed, vars: vars, met: &metrics.Serve{}, hists: &metrics.Set{},
		queries: newServeQueries(seed), epoch: time.Now(),
		entryNs: make([]atomic.Int64, maxVersions+2), firstNs: make([]atomic.Int64, maxVersions+2)}
	sp := tr.begin(parent, "distributed", "NewServingFleet")
	t := time.Now()
	fleet, err := distributed.NewServingFleet(distributed.ServingConfig{
		Replicas: serveReplicas,
		Spec:     serve.MLPForward(serveBatch, serveIn, serveHidden, serveClasses),
		Vars:     vars, MaxQueue: serveMaxQueue, Metrics: sb.met, Hists: sb.hists,
	})
	st.launch += msSince(t)
	sp.End()
	if err != nil {
		return nil, err
	}
	sb.fleet = fleet
	sp = tr.begin(parent, "serve", "Publish(first)")
	t = time.Now()
	err = sb.publish()
	st.init += msSince(t)
	sp.End()
	if err != nil {
		fleet.Close()
		return nil, err
	}
	return sb, nil
}

// publish fills the next version's weights and publishes them.
func (sb *serveBench) publish() error {
	v := sb.fleet.Version() + 1
	fillWeights(sb.seed, v, func(name string) *tensor.Tensor {
		t, err := sb.vars.VarTensor(name)
		if err != nil {
			panic(err) // the store was created with exactly these names
		}
		return t
	})
	if int(v) < len(sb.entryNs) {
		sb.entryNs[v].Store(time.Since(sb.epoch).Nanoseconds())
	}
	got, err := sb.fleet.Publish()
	if err != nil {
		return err
	}
	if got != v {
		return fmt.Errorf("published version %d, expected %d", got, v)
	}
	return nil
}

// firstQuery retries until the fleet answers: right after the first publish
// the replicas may not have swapped the bank in yet.
func (sb *serveBench) firstQuery() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := sb.fleet.Query(sb.queryVector(0))
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet never answered: %w", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (sb *serveBench) queryVector(i int) []float32 {
	return sb.queries.Float32s()[i*serveIn : (i+1)*serveIn]
}

// runPublisher publishes every servePublishEvery until stop is closed. It is
// paced by a ticker, never by spinning: a spinning pacer took one of the two
// cores while sizing and tripled the tail.
func (sb *serveBench) runPublisher(stop <-chan struct{}, errc chan<- error) {
	tick := time.NewTicker(servePublishEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			errc <- nil
			return
		case due := <-tick.C:
			if lag := time.Since(due).Nanoseconds(); lag > sb.lagMaxNs.Load() {
				sb.lagMaxNs.Store(lag)
			}
			if err := sb.publish(); err != nil {
				errc <- err
				return
			}
		}
	}
}

// servePhase is the outcome of one closed-loop phase.
type servePhase struct {
	ms       []float64 // per-query latency of answered queries
	replies  []reply
	failed   int     // queries shed or answered with an error
	firstErr error   // the first such error
	stale    int     // replies more than one version behind the trainer
	wrong    int     // replies whose row differs from the reference
	win      *window // wall, CPU and allocation over the phase
}

// runClients runs n closed-loop clients for d: each sends its next query when
// the previous reply arrived.
func (sb *serveBench) runClients(n int, d time.Duration, tr *tracer, parent *span) servePhase {
	outs := make([]servePhase, n)
	var wg sync.WaitGroup
	win := startWindow()
	deadline := time.Now().Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			for i := c; time.Now().Before(deadline); i += n {
				q := i % serveQueryVectors
				sp := tr.begin(parent, "serve", "ServingFleet.Query")
				start := time.Now()
				r, err := sb.fleet.Query(sb.queryVector(q))
				elapsed := time.Since(start)
				sp.End()
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = err
					}
					continue
				}
				if r.Staleness > 1 {
					out.stale++
				}
				if v := int(r.Version); v < len(sb.firstNs) && sb.firstNs[v].Load() == 0 {
					sb.firstNs[v].CompareAndSwap(0, time.Since(sb.epoch).Nanoseconds())
				}
				out.ms = append(out.ms, float64(elapsed.Nanoseconds())/1e6)
				out.replies = append(out.replies, reply{uint16(q), uint32(r.Version), hashRow(r.Probs)})
			}
		}(c)
	}
	wg.Wait()
	win.end()
	ph := servePhase{win: win}
	for _, o := range outs {
		ph.ms = append(ph.ms, o.ms...)
		ph.replies = append(ph.replies, o.replies...)
		ph.failed += o.failed
		ph.stale += o.stale
		if ph.firstErr == nil {
			ph.firstErr = o.firstErr
		}
	}
	return ph
}

// verify recomputes every version the replies name and compares each reply's
// row hash with the reference row for its query. It returns how many
// replies were wrong.
func (sb *serveBench) verify(replies []reply) (wrong int, err error) {
	byVersion := make(map[uint32][]reply)
	for _, r := range replies {
		byVersion[r.version] = append(byVersion[r.version], r)
	}
	weights := make(map[string]*tensor.Tensor)
	for _, vs := range serveVarShapes {
		weights[vs.name] = tensor.New(tensor.Float32, vs.shape...)
	}
	for v, rs := range byVersion {
		fillWeights(sb.seed, uint64(v), func(name string) *tensor.Tensor { return weights[name] })
		probs, err := referenceForward(weights, sb.queries)
		if err != nil {
			return 0, err
		}
		var want [serveQueryVectors]uint64
		for q := range want {
			want[q] = hashRow(probs.Float32s()[q*serveClasses : (q+1)*serveClasses])
		}
		for _, r := range rs {
			if r.hash != want[r.query] {
				wrong++
			}
		}
	}
	return wrong, nil
}

// publishToServedMS returns Publish-entry to first-reply latencies for the
// versions whose Publish was entered during one of the rounds' sparse phases.
func (sb *serveBench) publishToServedMS(rounds []serveRound) []float64 {
	var ms []float64
	for v := range sb.firstNs {
		first, entry := sb.firstNs[v].Load(), sb.entryNs[v].Load()
		if first == 0 || entry == 0 {
			continue
		}
		for _, r := range rounds {
			if entry >= r.sparseFromNs && entry < r.sparseToNs {
				ms = append(ms, float64(first-entry)/1e6)
			}
		}
	}
	return ms
}

// serveCycle is one cold setup cycle: fleet up, first publish, first reply,
// fleet down.
func serveCycle(seed int64, tr *tracer, parent *span, st *stageMS) error {
	sp := tr.begin(parent, "bench", "cold-cycle:serve")
	defer sp.End()
	sb, err := startServe(seed, 0, tr, sp, st)
	if err != nil {
		return err
	}
	fs := tr.begin(sp, "serve", "ServingFleet.Query(first)")
	t := time.Now()
	err = sb.firstQuery()
	st.firstStep += msSince(t)
	fs.End()
	cs := tr.begin(sp, "distributed", "ServingFleet.Close")
	t = time.Now()
	sb.fleet.Close()
	st.close += msSince(t)
	cs.End()
	return err
}

// serveRound is one sparse phase followed by one full phase.
type serveRound struct {
	sparse, full servePhase
	// sparseFromNs/sparseToNs bound the sparse phase since the bench epoch.
	sparseFromNs, sparseToNs int64
}

// serveRun is the outcome of one fleet's rounds.
type serveRun struct {
	rounds                  []serveRound
	before, after           metrics.ServeSnapshot
	histsBefore, histsAfter metrics.SetSnapshot
	kernelNs                time.Duration // compute-kernel time over all rounds
	kernelCalls             int64
}

// sparseMS returns the sparse-phase query latencies, one slice per round.
func (run *serveRun) sparseMS() [][]float64 {
	out := make([][]float64, len(run.rounds))
	for i, r := range run.rounds {
		out[i] = r.sparse.ms
	}
	return out
}

// runServePhases starts a fleet, warms it, runs nRounds rounds of a sparse
// then a full phase under a live publisher (d in total), verifies every
// reply, and closes the fleet. Rounds exist for the same reason as on the
// Step-driven workloads: a run reports the median over them, so a noisy
// couple of seconds on the host does not decide its value.
func runServePhases(ctx *runCtx, d time.Duration, nRounds int, tr *tracer, parent *span, res *result) (*serveBench, *serveRun, error) {
	maxVersions := int(d/servePublishEvery) + 64
	sb, err := startServe(ctx.seed, maxVersions, tr, parent, &stageMS{})
	if err != nil {
		return nil, nil, err
	}
	defer sb.fleet.Close()
	if err := sb.firstQuery(); err != nil {
		return nil, nil, err
	}
	for i := 0; i < warmupOps; i++ {
		if _, err := sb.fleet.Query(sb.queryVector(i % serveQueryVectors)); err != nil {
			return nil, nil, fmt.Errorf("warm-up query: %w", err)
		}
	}
	run := &serveRun{before: sb.met.Snapshot(), histsBefore: sb.hists.Snapshot()}
	kernel0, calls0 := kernelTotals()
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go sb.runPublisher(stop, errc)

	per := d / time.Duration(2*nRounds)
	for r := 0; r < nRounds; r++ {
		var round serveRound
		round.sparseFromNs = time.Since(sb.epoch).Nanoseconds()
		round.sparse = sb.runClients(serveSparseClients, per, tr, parent)
		round.sparseToNs = time.Since(sb.epoch).Nanoseconds()
		round.full = sb.runClients(serveFullClients, per, tr, parent)
		run.rounds = append(run.rounds, round)
	}
	close(stop)
	if err := <-errc; err != nil {
		return nil, nil, fmt.Errorf("publisher: %w", err)
	}
	run.after, run.histsAfter = sb.met.Snapshot(), sb.hists.Snapshot()
	kernel1, calls1 := kernelTotals()
	run.kernelNs, run.kernelCalls = kernel1-kernel0, calls1-calls0

	for i := range run.rounds {
		for _, ph := range []*servePhase{&run.rounds[i].sparse, &run.rounds[i].full} {
			if ph.wrong, err = sb.verify(ph.replies); err != nil {
				return nil, nil, fmt.Errorf("reference forward pass: %w", err)
			}
			res.Attempted += len(ph.replies) + ph.failed
			res.failN(ph.failed, "query shed or errored, first: %v", ph.firstErr)
			res.failN(ph.stale, "reply more than one version behind the trainer")
			res.failN(ph.wrong, "reply row differs from the reference forward pass of the version it names")
		}
	}
	return sb, run, nil
}

func runServeFleet(ctx *runCtx) (*result, error) {
	if ctx.trace {
		return runServeTraced(ctx)
	}
	res := newResult()
	setup, err := ctx.medianSetup(func() error { return serveCycle(ctx.seed, nil, nil, &stageMS{}) })
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)
	sb, run, err := runServePhases(ctx, ctx.window(), rounds, nil, nil, res)
	if err != nil {
		return nil, err
	}
	res.latencyStats("sparse", run.sparseMS())
	var work, cpuPerOp []float64
	for _, r := range run.rounds {
		res.Samples["full"] += len(r.full.replies)
		work = append(work, ratio(float64(len(r.full.replies)-r.full.wrong), r.full.win.Wall.Seconds()))
		cpu := r.sparse.win.CPU + r.full.win.CPU
		ops := len(r.sparse.replies) + r.sparse.failed + len(r.full.replies) + r.full.failed
		cpuPerOp = append(cpuPerOp, ratio(float64(cpu.Nanoseconds())/1e6, float64(ops)))
	}
	res.set("work_per_s", median(work))
	res.set("cpu_ms_per_op", median(cpuPerOp))
	res.set("peak_rss_mb", peakRSSMB())
	p2s := sb.publishToServedMS(run.rounds)
	res.Samples["publish_to_served"] = len(p2s)
	res.Info["publish_to_served_ms_p50"] = median(p2s)
	res.Info["publisher_lag_ms_max"] = float64(sb.lagMaxNs.Load()) / 1e6
	res.Info["staleness_versions_max"] = float64(run.after.StalenessVersionsMax)
	return res, nil
}
