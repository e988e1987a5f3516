package serve

import (
	"errors"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// ErrOverloaded is the admission-control shed: the frontend's bounded
// queue is full and the query was rejected immediately rather than queued
// into unbounded latency. Callers retry with backoff or drop.
var ErrOverloaded = errors.New("serve: overloaded, query shed")

// ErrNoReplica means the routing table had no live, serving replica when
// the batch dispatched (fleet warming up or fully dead).
var ErrNoReplica = errors.New("serve: no routable replica")

// Result is one query's answer.
type Result struct {
	// Probs is the query's output row (Classes wide).
	Probs []float32
	// Version is the weight version that produced it; Staleness how many
	// versions behind the trainer that was at response time (the serving
	// gate asserts ≤ 1).
	Version   uint64
	Staleness int64
}

// FrontendConfig parameterizes NewFrontend.
type FrontendConfig struct {
	// Table routes batches to replicas.
	Table *RoutingTable
	// Spec fixes the batch geometry: a dispatch carries at most Spec.Batch
	// queries, runs exactly as many rows as it carries, and results are
	// Spec.Classes wide.
	Spec ForwardSpec
	// MaxQueue bounds admitted-but-undispatched queries (default 1024);
	// beyond it Query sheds with ErrOverloaded.
	MaxQueue int
	// BatchWait is how long a partial batch waits for co-riders before
	// dispatching anyway (default 200µs).
	BatchWait time.Duration
	// TrainerVersion reports the newest published version, for staleness
	// accounting (typically WeightPublisher.Version). Nil disables it.
	TrainerVersion func() uint64
	// Metrics/Hists receive shed, served, and latency accounting.
	Metrics *metrics.Serve
	Hists   *metrics.Set
}

type pending struct {
	x    []float32
	enq  time.Time
	done chan outcome
}

type outcome struct {
	res Result
	err error
}

// Frontend is the query entry point: a bounded admission queue feeding one
// batcher per replica, each packing queries into an inference batch and
// routing it through the table, so the replicas run batches at once.
type Frontend struct {
	cfg FrontendConfig
	q   chan *pending

	batchHist *metrics.Histogram
	queueHist *metrics.Histogram
	sizeHist  *metrics.Histogram

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	wg        sync.WaitGroup
}

// NewFrontend validates geometry and builds the frontend (not yet running;
// call Start).
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if cfg.Table == nil {
		return nil, errors.New("serve: frontend needs a routing table")
	}
	if cfg.Spec.Batch <= 0 || cfg.Spec.Inputs <= 0 || cfg.Spec.Classes <= 0 {
		return nil, errors.New("serve: frontend spec needs positive Batch/Inputs/Classes")
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.BatchWait <= 0 {
		cfg.BatchWait = 200 * time.Microsecond
	}
	f := &Frontend{
		cfg:    cfg,
		q:      make(chan *pending, cfg.MaxQueue),
		stopCh: make(chan struct{}),
	}
	if cfg.Hists != nil {
		f.batchHist = cfg.Hists.Hist(metrics.HistServeBatchNs)
		f.queueHist = cfg.Hists.Hist(metrics.HistServeQueueNs)
		f.sizeHist = cfg.Hists.Hist(metrics.HistServeBatchSize)
	}
	return f, nil
}

// Start launches one batcher per replica in the table (at least one);
// idempotent. pick sends each batch to the replica with the fewest
// outstanding, so concurrent batches land on different replicas.
func (f *Frontend) Start() {
	f.startOnce.Do(func() {
		n := max(f.cfg.Table.size(), 1)
		f.wg.Add(n)
		for i := 0; i < n; i++ {
			go f.batchLoop()
		}
	})
}

// Close stops the batchers; queries still in the queue fail with
// ErrNoReplica-free shutdown errors only if waited on after Close.
func (f *Frontend) Close() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	f.wg.Wait()
}

// Query admits one query and blocks for its result. Admission is
// non-blocking: a full queue sheds immediately with ErrOverloaded, which
// bounds the time any caller can spend waiting on an overloaded fleet.
func (f *Frontend) Query(x []float32) (Result, error) {
	if len(x) != f.cfg.Spec.Inputs {
		return Result{}, errors.New("serve: query width mismatch")
	}
	p := &pending{x: x, enq: time.Now(), done: make(chan outcome, 1)}
	select {
	case f.q <- p:
	default:
		if f.cfg.Metrics != nil {
			f.cfg.Metrics.AddShed()
		}
		return Result{}, ErrOverloaded
	}
	select {
	case out := <-p.done:
		return out.res, out.err
	case <-f.stopCh:
		return Result{}, errors.New("serve: frontend closed")
	}
}

// batchLoop drains the shared queue into batches: dispatch as soon as
// Spec.Batch queries are waiting, or after BatchWait with whatever arrived.
func (f *Frontend) batchLoop() {
	defer f.wg.Done()
	for {
		var first *pending
		select {
		case <-f.stopCh:
			return
		case first = <-f.q:
		}
		batch := []*pending{first}
		timer := time.NewTimer(f.cfg.BatchWait)
	fill:
		for len(batch) < f.cfg.Spec.Batch {
			select {
			case <-f.stopCh:
				timer.Stop()
				f.fail(batch, errors.New("serve: frontend closed"))
				return
			case p := <-f.q:
				batch = append(batch, p)
			case <-timer.C:
				break fill
			}
		}
		timer.Stop()
		f.dispatch(batch)
	}
}

// pickPoll is how often pick re-tries the table while a staged replica
// activates.
const pickPoll = 50 * time.Microsecond

// pick selects the batch's replica. Publish returns once the bank's flag
// is written, but a replica only becomes routable when its swap loop next
// polls that flag; a batch dispatched in between waits for it, up to
// BatchWait, rather than failing with ErrNoReplica. With no staged replica
// (nothing published, or every replica dead) it fails at once. "Staged"
// comes from the same table pass that found nothing to pick, so a swap
// landing mid-pass cannot make both answers negative.
func (f *Frontend) pick() *Replica {
	deadline := time.Now().Add(f.cfg.BatchWait)
	for {
		r, staged := f.cfg.Table.pick()
		if r != nil {
			return r
		}
		if !staged || time.Now().After(deadline) {
			return nil
		}
		select {
		case <-f.stopCh:
			return nil
		case <-time.After(pickPoll):
		}
	}
}

// dispatch routes one batch: pick a replica, pin its active bank, run one
// row per query, and demux rows back to their waiters.
func (f *Frontend) dispatch(batch []*pending) {
	r := f.pick()
	if r == nil {
		if f.cfg.Metrics != nil {
			f.cfg.Metrics.AddRoutingReject()
		}
		f.fail(batch, ErrNoReplica)
		return
	}
	defer f.cfg.Table.Done(r.Task())
	ref, ok := r.Acquire()
	if !ok {
		// Replica went warming between pick and Acquire (restart); shed the
		// batch rather than spin.
		if f.cfg.Metrics != nil {
			f.cfg.Metrics.AddRoutingReject()
		}
		f.fail(batch, ErrNoReplica)
		return
	}
	defer ref.Release()

	spec := f.cfg.Spec
	x := tensor.New(tensor.Float32, len(batch), spec.Inputs)
	xs := x.Float32s()
	for i, p := range batch {
		copy(xs[i*spec.Inputs:(i+1)*spec.Inputs], p.x)
	}
	start := time.Now()
	out, err := r.Infer(ref, x)
	if err != nil {
		f.fail(batch, err)
		return
	}
	elapsed := time.Since(start)

	var staleness int64
	if f.cfg.TrainerVersion != nil {
		if tv := f.cfg.TrainerVersion(); tv > ref.Version {
			staleness = int64(tv - ref.Version)
		}
	}
	probs := out.Float32s()
	for i, p := range batch {
		row := make([]float32, spec.Classes)
		copy(row, probs[i*spec.Classes:(i+1)*spec.Classes])
		p.done <- outcome{res: Result{Probs: row, Version: ref.Version, Staleness: staleness}}
		if f.queueHist != nil {
			f.queueHist.Record(time.Since(p.enq).Nanoseconds())
		}
	}
	if f.cfg.Metrics != nil {
		f.cfg.Metrics.AddServed(len(batch))
		f.cfg.Metrics.ObserveStaleness(staleness)
	}
	if f.batchHist != nil {
		f.batchHist.Record(elapsed.Nanoseconds())
	}
	if f.sizeHist != nil {
		f.sizeHist.Record(int64(len(batch)))
	}
}

func (f *Frontend) fail(batch []*pending, err error) {
	for _, p := range batch {
		p.done <- outcome{err: err}
	}
}
