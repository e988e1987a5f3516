// Package exec executes data-flow graph partitions: a worker pool drains a
// ready queue of nodes, supporting the three operator execution modes of §4
// — synchronous, asynchronous, and the paper's new polling-async mode,
// where a receive operator that polls a flag byte is re-enqueued at the
// tail of the ready queue until the flag is set, so polling never blocks
// other ready work.
package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Execution errors.
var (
	ErrExec        = errors.New("exec: execution failed")
	ErrFeed        = errors.New("exec: bad feed")
	ErrFetch       = errors.New("exec: unknown fetch")
	ErrAborted     = errors.New("exec: aborted")
	ErrPollTimeout = errors.New("exec: polling made no progress")
)

// Config parameterizes an Executor.
type Config struct {
	// Task selects the partition: only nodes assigned to this task run.
	// Empty runs the whole graph (single-server mode).
	Task string
	// Workers is the worker-goroutine count (default 4).
	Workers int
	// Vars is the variable store; required if the partition has variables.
	Vars *VarStore
	// Policy routes tensor allocations (default HeapPolicy).
	Policy AllocPolicy
	// Env is passed through to kernels via Context.Env.
	Env any
	// PollTimeout aborts an iteration when no node completes for this long
	// while polling operators spin — the failure-detection backstop for a
	// peer that died or a partitioned fabric. Zero disables the timeout.
	PollTimeout time.Duration
	// KernelWorkers, when positive, resizes the process-wide compute-kernel
	// pool (internal/parallel) the tensor kernels chunk their work onto.
	// Zero leaves the pool at its GOMAXPROCS default. The pool is shared by
	// every executor in the process; results are bit-identical at any size.
	KernelWorkers int
	// Trace, when non-nil, records one duration event per operator
	// execution (chrome trace-event format).
	Trace *trace.Recorder
	// Hists, when non-nil, receives latency histograms: per-op execution
	// latency (metrics.HistExecOpNs, keyed by op name) and poll-wait time
	// (metrics.HistPollWaitNs). Histogram pointers are resolved once per op
	// at first execution, so the per-record cost is a few atomic adds.
	Hists *metrics.Set
	// Frozen rejects graphs that mutate variables (optimizer updates) at
	// construction time. Serving executors run against variable stores
	// aliasing publisher-owned bank memory, where an in-place update would
	// corrupt a shared weight snapshot; Frozen makes that a build error
	// instead of a data race.
	Frozen bool
}

// Executor runs one graph partition iteration by iteration.
type Executor struct {
	g       *graph.Graph
	cfg     Config
	nodes   []*graph.Node // partition nodes
	inPart  []bool        // by node id
	consume [][]*graph.Node
	indeg   []int
	stats   *statsTable
	ctxs    []*nodeCtx // by node id; nil outside the partition

	pollWaitHist  *metrics.Histogram // nil unless cfg.Hists is set
	pollBatchHist *metrics.Histogram // nil unless cfg.Hists is set

	// iterMu is held by Run for a whole iteration: the node contexts and
	// the run buffers below belong to the executor, not to one run, so
	// concurrent Run calls take turns.
	iterMu    sync.Mutex
	readyBuf  []*graph.Node    // ready-queue backing, cap len(nodes)
	remaining []int            // by node id
	values    []*tensor.Tensor // by node id
	scratch   []pollScratch    // by worker
	fetched   []*tensor.Tensor

	runMu   sync.Mutex
	current *runState // in-flight iteration, abortable from outside
	lastRun metrics.StepBreakdown
}

// nodeCtx is one partition node's execution context, built once per
// executor: Run resets the per-iteration fields, dispatch binds the inputs,
// and the Alloc closure is the method value of alloc. prev/cur hold the
// node's recyclable outputs by alloc index (recycle.go).
type nodeCtx struct {
	graph.Context
	policy   AllocPolicy
	allocIdx int
	prev     []*tensor.Tensor // survivors of the previous iteration
	cur      []*tensor.Tensor // this iteration's recyclable allocations
}

// pollScratch is one worker's poll-pass scratch, reused across passes and
// runs.
type pollScratch struct {
	batch, ready, waiting []*graph.Node
}

// New validates the partition and builds an executor. Every input of a
// partition node must itself be in the partition (cross-server edges must
// already have been replaced by send/recv pairs).
func New(g *graph.Graph, cfg Config) (*Executor, error) {
	if cfg.Frozen {
		if err := graph.ForwardOnly(g); err != nil {
			return nil, err
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Policy == nil {
		cfg.Policy = HeapPolicy{}
	}
	if cfg.Vars == nil {
		cfg.Vars = NewVarStore()
	}
	if cfg.KernelWorkers > 0 {
		parallel.SetWorkers(cfg.KernelWorkers)
	}
	all := g.Nodes()
	e := &Executor{
		g:       g,
		cfg:     cfg,
		inPart:  make([]bool, len(all)),
		consume: make([][]*graph.Node, len(all)),
		indeg:   make([]int, len(all)),
		stats:   newStatsTable(cfg.Hists),
		ctxs:    make([]*nodeCtx, len(all)),

		remaining: make([]int, len(all)),
		values:    make([]*tensor.Tensor, len(all)),
		scratch:   make([]pollScratch, cfg.Workers),
	}
	if cfg.Hists != nil {
		e.pollWaitHist = cfg.Hists.Hist(metrics.HistPollWaitNs)
		e.pollBatchHist = cfg.Hists.Hist(metrics.HistPolledBatch)
	}
	for _, n := range all {
		if cfg.Task == "" || n.Task() == cfg.Task {
			e.inPart[n.ID()] = true
			e.nodes = append(e.nodes, n)
		}
	}
	for _, n := range e.nodes {
		deps := 0
		for _, in := range n.Inputs() {
			if !e.inPart[in.ID()] {
				return nil, fmt.Errorf("exec: %s input %s is outside partition %q: %w",
					n.Name(), in.Name(), cfg.Task, graph.ErrBadGraph)
			}
			e.consume[in.ID()] = append(e.consume[in.ID()], n)
			deps++
		}
		for _, c := range n.Controls() {
			if !e.inPart[c.ID()] {
				return nil, fmt.Errorf("exec: %s control dep %s is outside partition %q: %w",
					n.Name(), c.Name(), cfg.Task, graph.ErrBadGraph)
			}
			e.consume[c.ID()] = append(e.consume[c.ID()], n)
			deps++
		}
		e.indeg[n.ID()] = deps
	}
	for _, n := range e.nodes {
		nc := &nodeCtx{policy: cfg.Policy}
		nc.Node = n
		nc.Inputs = make([]*tensor.Tensor, len(n.Inputs()))
		nc.Vars = cfg.Vars
		nc.Env = cfg.Env
		nc.Alloc = nc.alloc
		e.ctxs[n.ID()] = nc
	}
	e.readyBuf = make([]*graph.Node, 0, len(e.nodes))
	for w := range e.scratch {
		e.scratch[w] = pollScratch{
			batch:   make([]*graph.Node, 0, pollBatchMax),
			ready:   make([]*graph.Node, 0, pollBatchMax),
			waiting: make([]*graph.Node, 0, pollBatchMax),
		}
	}
	return e, nil
}

// Nodes returns the partition's nodes.
func (e *Executor) Nodes() []*graph.Node { return e.nodes }

// traceLane names this executor's trace process lane.
func (e *Executor) traceLane() string {
	if e.cfg.Task != "" {
		return e.cfg.Task
	}
	return "local"
}

// Vars returns the executor's variable store.
func (e *Executor) Vars() *VarStore { return e.cfg.Vars }

// LastRun returns the step-time breakdown of the most recently completed
// Run call (zero value before the first run). Worker time is attributed by
// lap timestamps, so Accounted() sums to about Workers x Wall.
func (e *Executor) LastRun() metrics.StepBreakdown {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	return e.lastRun
}

// Abort fails the in-flight iteration, if any, with ErrAborted wrapping
// cause. Workers drain promptly (polling operators stop re-enqueueing,
// next() returns false), in-flight communication is canceled through
// Context.Canceled, and Run returns only after every asynchronous
// operation's completion callback has landed — so when Run comes back, no
// transfer of the dead iteration can still touch memory. Recovery drivers
// call it to cut short a step whose peer has crashed. Safe to call
// concurrently with Run and when no iteration is running (then it is a
// no-op).
func (e *Executor) Abort(cause error) {
	e.runMu.Lock()
	st := e.current
	e.runMu.Unlock()
	if st == nil {
		return
	}
	if cause == nil {
		st.fail(ErrAborted)
	} else {
		st.fail(fmt.Errorf("%w: %w", ErrAborted, cause))
	}
}

// run-state shared by the workers of one iteration.
type runState struct {
	e     *Executor
	iter  int
	feeds map[string]*tensor.Tensor
	// spanArgs is the trace-span metadata every operator span of the run
	// shares (read-only once built; nil when tracing is off).
	spanArgs map[string]any

	mu         sync.Mutex
	cond       sync.Cond
	queue      readyQueue
	remaining  []int
	values     []*tensor.Tensor
	pending    int // nodes not yet completed
	inflight   int // nodes currently being executed (incl. async)
	nonPolling int // queued nodes that are not polling operators
	progress   time.Time
	err        error

	// Step accounting: workers fold their lap totals here at exit; async
	// completion callbacks add dispatch-to-done latency concurrently.
	acct         metrics.StepBreakdown
	inflightNsAt atomic.Int64
	// lifeNs sums the workers' measured loop lifetimes (wall start to loop
	// exit); Run labels the drain tail — wall minus lifetime, the stretch a
	// worker already exited while a sibling finished its last backoff sleep
	// or in-flight transfer — as Idle.
	lifeNs int64
}

// readyQueue is the FIFO ready queue over a head-indexed buffer sized to
// the partition. A node is queued at most once at a time, so after a
// compaction there is always room: pops and pushes never reallocate.
type readyQueue struct {
	buf  []*graph.Node
	head int
}

func (q *readyQueue) len() int { return len(q.buf) - q.head }

func (q *readyQueue) push(n *graph.Node) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		live := copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:])
		q.buf, q.head = q.buf[:live], 0
	}
	q.buf = append(q.buf, n)
}

func (q *readyQueue) pop() *graph.Node {
	n := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return n
}

// foldAcct accumulates one worker's lap totals and loop lifetime into the
// run's breakdown.
func (st *runState) foldAcct(a metrics.StepBreakdown, life time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.acct.Compute += a.Compute
	st.acct.Comm += a.Comm
	st.acct.PollWait += a.PollWait
	st.acct.Idle += a.Idle
	st.acct.Ops += a.Ops
	st.lifeNs += life.Nanoseconds()
}

func isEdgeNode(n *graph.Node) bool {
	_, ok := n.Op().(graph.EdgeKernel)
	return ok
}

func isPollingNode(n *graph.Node) bool {
	_, ok := n.Op().(graph.PollingKernel)
	return ok
}

// Pure-polling backoff: when the ready queue holds only not-ready polling
// operators, a worker first spins through a miss budget (data usually
// arrives within tens to hundreds of microseconds), then sleeps with the
// duration doubling up to a cap. The polled flags are written remotely by
// one-sided RDMA, so the sleep delays only this worker's next poll — it
// cannot delay the data — and the FIFO requeue keeps multiple starved
// pollers taking turns at the queue head instead of one monopolizing the
// misses.
//
// The budget is counted in poll passes, so it must last about as long in
// wall time as data takes to land: the first sleep, however short it asks
// to be, costs about a millisecond in an otherwise idle Go process (the
// runtime's netpoller rounds sub-millisecond waits up to 1 ms). 64 passes
// of the allocation-free poll loop span roughly what 16 passes of the
// older, allocating loop did; see DESIGN §11.
//
// pollBatchMax caps the batched completion scan: when a worker pops a
// polling operator it drains every other queued polling operator (up to the
// cap) in the same lock acquisition and polls the whole set in one pass, so
// N starved receives cost one queue round-trip instead of N.
const (
	pollSpinBudget  = 64
	pollBackoffMin  = 5 * time.Microsecond
	pollBackoffMax  = time.Millisecond
	pollBackoffExpo = 8 // doublings until the cap is pinned
	pollBatchMax    = 64
)

func pollBackoff(misses int) time.Duration {
	exp := misses - pollSpinBudget - 1
	if exp < 0 {
		return 0
	}
	if exp > pollBackoffExpo {
		exp = pollBackoffExpo
	}
	d := pollBackoffMin << uint(exp)
	if d > pollBackoffMax {
		d = pollBackoffMax
	}
	return d
}

func (st *runState) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err == nil {
		st.err = err
	}
	st.cond.Broadcast()
}

// canceled reports whether the run has failed; communication kernels poll
// it (via Context.Canceled) between retry attempts so in-flight transfers
// give up promptly once the iteration is dead instead of re-sending into
// memory the next iteration will own.
func (st *runState) canceled() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err != nil
}

// enqueueLocked appends a ready node to the queue tail.
func (st *runState) enqueueLocked(n *graph.Node) {
	st.queue.push(n)
	if !isPollingNode(n) {
		st.nonPolling++
	}
}

// dispatchLocked marks a node popped from the queue in flight and binds its
// context's inputs to the producers' outputs.
func (st *runState) dispatchLocked(n *graph.Node) {
	st.inflight++
	inputs := st.e.ctxs[n.ID()].Inputs
	for i, in := range n.Inputs() {
		inputs[i] = st.values[in.ID()]
	}
}

// complete records a node's output and readies its consumers. It is safe to
// call from async completion callbacks (CQ poller goroutines).
func (st *runState) complete(n *graph.Node, out *tensor.Tensor, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight--
	if err != nil {
		if st.err == nil {
			st.err = fmt.Errorf("exec: node %s: %w", n.Name(), err)
		}
		st.cond.Broadcast()
		return
	}
	st.values[n.ID()] = out
	st.pending--
	st.progress = time.Now()
	for _, c := range st.e.consume[n.ID()] {
		st.remaining[c.ID()]--
		if st.remaining[c.ID()] == 0 {
			st.enqueueLocked(c)
		}
	}
	st.cond.Broadcast()
}

// next pops the next ready node, blocking until one is available, the run
// finishes, or an error occurs. ok=false means the worker should exit.
func (st *runState) next() (*graph.Node, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.err != nil || st.pending == 0 {
			return nil, false
		}
		if st.queue.len() > 0 {
			n := st.queue.pop()
			if !isPollingNode(n) {
				st.nonPolling--
			}
			st.dispatchLocked(n)
			return n, true
		}
		if st.inflight == 0 {
			// Nothing queued and nothing running: the graph is stuck
			// (should be impossible for a validated acyclic partition).
			st.err = fmt.Errorf("exec: scheduler stalled with %d nodes pending: %w", st.pending, ErrExec)
			return nil, false
		}
		st.cond.Wait()
	}
}

// grabPollBatch moves up to max queued polling operators onto batch in one
// lock acquisition, dispatching each. Non-polling nodes keep their relative
// order (and nonPolling count); only polling operators are pulled, so the
// batch poll below scans the whole starved set in one pass instead of
// cycling them through the queue one at a time.
func (st *runState) grabPollBatch(batch []*graph.Node, max int) []*graph.Node {
	st.mu.Lock()
	defer st.mu.Unlock()
	if max <= 0 || st.queue.len() == 0 {
		return batch
	}
	live := st.queue.buf[st.queue.head:]
	kept := live[:0]
	grabbed := 0
	for _, n := range live {
		if grabbed < max && isPollingNode(n) {
			batch = append(batch, n)
			st.dispatchLocked(n)
			grabbed++
		} else {
			kept = append(kept, n)
		}
	}
	clear(live[len(kept):])
	st.queue.buf = st.queue.buf[:st.queue.head+len(kept)]
	return batch
}

// requeueBatch puts not-ready polling nodes back at the tail (§4: "it simply
// re-enqueues this operator into the tail of the ready queue") under one
// lock. It reports whether non-polling work is queued: when only polling
// operators remain, callers back off instead of busy-spinning (polling "has
// a lower priority than other ready tasks ... to minimize its impact").
func (st *runState) requeueBatch(nodes []*graph.Node) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight -= len(nodes)
	hadOther := st.nonPolling > 0
	for _, n := range nodes {
		st.queue.push(n)
	}
	st.cond.Broadcast()
	return hadOther
}

// Run executes one iteration of the partition: feeds bind placeholders,
// fetches name the node outputs to return. Concurrent calls on one
// executor are serialized.
func (e *Executor) Run(iter int, feeds map[string]*tensor.Tensor, fetches ...string) (map[string]*tensor.Tensor, error) {
	if err := e.checkFeeds(feeds); err != nil {
		return nil, err
	}
	for _, f := range fetches {
		n, err := e.g.Node(f)
		if err != nil || !e.inPart[n.ID()] {
			return nil, fmt.Errorf("exec: fetch %q: %w", f, ErrFetch)
		}
	}
	e.iterMu.Lock()
	defer e.iterMu.Unlock()
	clear(e.readyBuf[:cap(e.readyBuf)])
	copy(e.remaining, e.indeg)
	clear(e.values)
	st := &runState{
		e:         e,
		iter:      iter,
		feeds:     feeds,
		queue:     readyQueue{buf: e.readyBuf[:0]},
		remaining: e.remaining,
		values:    e.values,
		pending:   len(e.nodes),
		progress:  time.Now(),
	}
	st.cond.L = &st.mu
	if e.cfg.Trace != nil {
		st.spanArgs = map[string]any{"iter": iter}
	}
	canceled := st.canceled
	for _, n := range e.nodes {
		nc := e.ctxs[n.ID()]
		nc.Iter, nc.Feeds, nc.Canceled = iter, feeds, canceled
		nc.Output, nc.allocIdx = nil, 0
		if e.indeg[n.ID()] == 0 {
			st.enqueueLocked(n)
		}
	}

	e.runMu.Lock()
	e.current = st
	e.runMu.Unlock()
	wallStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker(st, &e.scratch[w], wallStart)
		}()
	}
	wg.Wait()
	// Quiesce: on a clean run every node completed, but on a failed one the
	// workers exit while asynchronous operations may still be in flight.
	// Wait for their completion callbacks before returning — the caller will
	// reuse feeds, slots, and arena memory for the next iteration, and an
	// async transfer still running against this one would race it. The wait
	// is bounded: Context.Canceled reports the failure, so retried transfers
	// give up within one backoff period, and FailPending (below) releases
	// completions that are parked rather than running.
	st.mu.Lock()
	failed := st.err
	st.mu.Unlock()
	if failed != nil {
		// A completion can also be *parked* in the environment waiting for
		// sibling work the dead iteration will never dispatch — e.g. a
		// member staged into a coalesced batch that can no longer fill.
		// No retry loop ever polls the cancel flag on its behalf, so ask
		// the environment to fail those now; otherwise the drain below
		// would wait on them forever.
		if f, ok := e.cfg.Env.(interface{ FailPending(error) }); ok {
			f.FailPending(failed)
		}
	}
	st.mu.Lock()
	for st.inflight > 0 {
		st.cond.Wait()
	}
	st.mu.Unlock()
	wall := time.Since(wallStart)
	st.mu.Lock()
	breakdown := st.acct
	st.mu.Unlock()
	breakdown.Wall = wall
	breakdown.Workers = e.cfg.Workers
	breakdown.CommInflight = time.Duration(st.inflightNsAt.Load())
	// Workers that exited before the slowest sibling spent the difference
	// waiting for the run to drain; that tail is idle time of the step.
	if tail := time.Duration(e.cfg.Workers)*wall - time.Duration(st.lifeNs); tail > 0 {
		breakdown.Idle += tail
	}
	e.runMu.Lock()
	e.current = nil
	e.lastRun = breakdown
	e.runMu.Unlock()

	st.mu.Lock()
	err := st.err
	st.mu.Unlock()
	if err != nil {
		e.finishRecycle(false, nil)
		return nil, err
	}
	out := make(map[string]*tensor.Tensor, len(fetches))
	e.fetched = e.fetched[:0]
	for _, f := range fetches {
		n, _ := e.g.Node(f)
		out[f] = st.values[n.ID()]
		e.fetched = append(e.fetched, out[f])
	}
	e.finishRecycle(true, e.fetched)
	clear(e.fetched)
	return out, nil
}

// worker drains the ready queue. Every moment from the run's wall start is
// attributed to exactly one step-breakdown category via lap timestamps —
// goroutine start latency, scheduler waits, and bookkeeping to Idle, Poll
// calls and backoff sleeps to PollWait, kernel execution to Compute or (for
// EdgeKernel operators) Comm — so the per-worker totals sum back to this
// worker's share of the run wall and the consistency suite can check that
// the books balance. The lap opens at startAt (the wall start), not at the
// goroutine's first instruction: on a loaded box workers are queued runnable
// for a while before they first run, and that wait is idle time the step
// really spent.
func (e *Executor) worker(st *runState, sc *pollScratch, startAt time.Time) {
	var acct metrics.StepBreakdown
	defer func() { st.foldAcct(acct, time.Since(startAt)) }()
	lap := startAt
	tick := func() time.Duration {
		now := time.Now()
		d := now.Sub(lap)
		lap = now
		return d
	}
	pollMisses := 0
	for {
		n, ok := st.next()
		acct.Idle += tick() // scheduler wait + queue bookkeeping
		if !ok {
			return
		}

		// Polling-async phase 1, batched: when the head is a polling
		// operator, drain every other queued polling operator (one lock)
		// and poll the whole set in one pass. Misses go back to the tail
		// together (one lock); hits execute right here. N starved receives
		// cost one queue round-trip and one backoff decision per pass
		// instead of N.
		if pk, isPolling := n.Op().(graph.PollingKernel); isPolling {
			batch := st.grabPollBatch(append(sc.batch[:0], n), pollBatchMax-1)
			e.pollBatchHist.Record(int64(len(batch)))
			ready, waiting := sc.ready[:0], sc.waiting[:0]
			var pollErr error
			var errNode *graph.Node
			for i, pn := range batch {
				if i > 0 {
					pk = pn.Op().(graph.PollingKernel)
				}
				hit, err := pk.Poll(&e.ctxs[pn.ID()].Context)
				if err != nil {
					errNode, pollErr = pn, err
					waiting = append(waiting, batch[i+1:]...) // unpolled rest
					break
				}
				if hit {
					ready = append(ready, pn)
				} else {
					waiting = append(waiting, pn)
				}
			}
			acct.PollWait += tick()
			if pollErr != nil {
				// The failed node carries the error; everything else —
				// including ready-but-unexecuted hits, which will poll
				// ready again — goes back so its completion stays owned
				// by the queue.
				waiting = append(waiting, ready...)
				if len(waiting) > 0 {
					st.requeueBatch(waiting)
				}
				st.complete(errNode, nil, pollErr)
				return
			}
			if len(ready) == 0 {
				e.stats.recordPollMiss(n.Op().Name())
				if d := e.cfg.PollTimeout; d > 0 {
					st.mu.Lock()
					stalled := time.Since(st.progress) > d
					pending := st.pending
					// Queued + batched polling nodes minus this one = how
					// many other polling operators are also spinning on
					// unarrived data — distinguishes one dead edge from a
					// task-wide partition.
					polling := st.queue.len() - st.nonPolling + len(waiting) - 1
					st.mu.Unlock()
					if stalled {
						e.stats.recordPollTimeout(n.Op().Name())
						acct.PollWait += tick()
						if len(waiting) > 1 {
							st.requeueBatch(waiting[1:]) // waiting[0] == n
						}
						st.complete(n, nil, fmt.Errorf("%w: %s made no progress for %v at iter %d with %d nodes pending, %d other polling operators starved (peer dead or network partitioned?)",
							ErrPollTimeout, n.Name(), d, st.iter, pending, polling))
						return
					}
				}
				hadOther := st.requeueBatch(waiting)
				if hadOther {
					pollMisses = 0
				} else {
					// Pure-polling queue: back off instead of spinning
					// ("polling has a lower priority ... to minimize its
					// impact").
					pollMisses++
					if d := pollBackoff(pollMisses); d > 0 {
						e.stats.recordPollBackoff(n.Op().Name())
						time.Sleep(d)
						e.pollWaitHist.Record(d.Nanoseconds())
					}
				}
				acct.PollWait += tick() // requeue + backoff sleep
				continue
			}
			if len(waiting) > 0 {
				st.requeueBatch(waiting)
			}
			pollMisses = 0
			acct.PollWait += tick() // requeue bookkeeping
			for _, rn := range ready {
				e.execNode(st, rn, &acct, tick)
			}
			continue
		}
		pollMisses = 0
		e.execNode(st, n, &acct, tick)
	}
}

// execNode is phase 2: execute one ready node asynchronously if supported,
// else synchronously. tick attributes the elapsed lap to the worker's
// breakdown (Comm for EdgeKernel operators, Compute otherwise).
func (e *Executor) execNode(st *runState, n *graph.Node, acct *metrics.StepBreakdown, tick func() time.Duration) {
	ctx := &e.ctxs[n.ID()].Context
	isEdge := isEdgeNode(n)
	start := time.Now()
	var endSpan func()
	if e.cfg.Trace != nil {
		endSpan = e.cfg.Trace.Span(e.traceLane(), "exec", n.Op().Name(), n.Name(), st.spanArgs)
	}
	switch k := n.Op().(type) {
	case graph.AsyncKernel:
		k.ComputeAsync(ctx, func(err error) {
			d := time.Since(start)
			e.stats.recordExec(n.Op().Name(), d)
			metrics.AddKernelTime(n.Op().Name(), d)
			if isEdge {
				st.inflightNsAt.Add(d.Nanoseconds())
			}
			if endSpan != nil {
				endSpan()
			}
			st.complete(n, ctx.Output, err)
		})
		// The dispatch portion occupied this worker; the rest of the
		// operation's latency flies concurrently and lands in
		// CommInflight via the callback above.
		if isEdge {
			acct.Comm += tick()
		} else {
			acct.Compute += tick()
		}
		acct.Ops++
	case graph.Kernel:
		err := k.Compute(ctx)
		d := time.Since(start)
		e.stats.recordExec(n.Op().Name(), d)
		metrics.AddKernelTime(n.Op().Name(), d)
		if endSpan != nil {
			endSpan()
		}
		if isEdge {
			acct.Comm += tick()
		} else {
			acct.Compute += tick()
		}
		acct.Ops++
		st.complete(n, ctx.Output, err)
		acct.Idle += tick() // completion bookkeeping
	default:
		st.complete(n, nil, fmt.Errorf("exec: op %s has no kernel: %w", n.Op().Name(), ErrExec))
	}
}

// alloc is the node's Context.Alloc: the k-th allocation of an iteration
// is served from the node's previous-iteration tensor when the policy
// calls the site recyclable, else by the policy.
func (nc *nodeCtx) alloc(dt tensor.DType, shape tensor.Shape) (*tensor.Tensor, error) {
	idx := nc.allocIdx
	nc.allocIdx++
	recyclable := nc.policy.Recyclable(nc.Node, nc.Iter, idx)
	if recyclable {
		if t := nc.take(idx, dt, shape); t != nil {
			return t, nil
		}
	}
	t, err := nc.policy.Alloc(nc.Node, nc.Iter, idx, dt, shape)
	if err == nil && recyclable {
		nc.track(idx, t)
		metrics.AddRecycleMiss()
	}
	return t, err
}

func (e *Executor) checkFeeds(feeds map[string]*tensor.Tensor) error {
	for name, t := range feeds {
		n, err := e.g.Node(name)
		if err != nil {
			return fmt.Errorf("exec: feed %q: %w", name, ErrFeed)
		}
		sig := n.Sig()
		if t.DType() != sig.DType {
			return fmt.Errorf("exec: feed %q dtype %v, want %v: %w", name, t.DType(), sig.DType, ErrFeed)
		}
		if t.Shape().Rank() != sig.Shape.Rank() {
			return fmt.Errorf("exec: feed %q rank %v, want %v: %w", name, t.Shape(), sig.Shape, ErrFeed)
		}
		for i, d := range sig.Shape {
			if d >= 0 && t.Shape()[i] != d {
				return fmt.Errorf("exec: feed %q dim %d is %d, want %d: %w",
					name, i, t.Shape()[i], d, ErrFeed)
			}
		}
	}
	return nil
}
