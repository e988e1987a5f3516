package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// ForwardSpec describes the forward-only inference graph a replica runs
// against its active weight bank. Build must create Variables named and
// shaped exactly like the shared layout's entries — the executors' stores
// alias bank bytes, so a mismatched variable fails construction, not
// inference.
type ForwardSpec struct {
	// Build assembles placeholders, variables, and the fetch node.
	Build func(b *graph.Builder) error
	// Feed is the input placeholder's name; Fetch the output node's.
	Feed, Fetch string
	// Batch is the most rows one run carries (the feed's leading dim is
	// dynamic, so a run takes any row count up to it); Inputs the feature
	// width; Classes the output width.
	Batch, Inputs, Classes int
}

// ReplicaConfig parameterizes NewReplica.
type ReplicaConfig struct {
	// Task is the replica's fabric endpoint name; Dev its device.
	Task string
	Dev  *rdma.Device
	// Layout is the shared weight layout.
	Layout *WeightLayout
	// Spec is the forward graph run against the active bank.
	Spec ForwardSpec
	// PublisherTask is the endpoint release acks are written to; Ack the
	// publisher-side region they land in (set via SetAckRegion when the
	// fleet wires up).
	PublisherTask string
	// Metrics receives swap counters (optional); Hists op latency.
	Metrics *metrics.Serve
	Hists   *metrics.Set
}

// Replica tuning: each bank executor's scheduler pool size, and the
// interval at which the swap loop polls the banks' flags and drains.
const (
	bankWorkers = 2
	swapPoll    = 50 * time.Microsecond
)

// bank is one of the replica's two weight buffers: registered memory the
// publisher writes into, the static receive slot over it (weights plus
// version word, then the tail flag), a store whose tensors alias it, and a
// forward executor reading through that store. readers guards the
// publisher's overwrite — a bank is released only at refcount zero.
type bank struct {
	mr      *rdma.MemRegion
	slot    *rdma.StaticReceiver
	vars    *exec.VarStore
	ex      *exec.Executor
	readers atomic.Int64
}

// Replica owns two weight banks and serves forward passes from whichever
// holds the newest complete version. The swap loop polls the banks'
// flags, atomically retargets serving at a committed new version, drains
// the old bank's readers, clears its flag, and posts the release ack that
// lets the publisher reuse it.
type Replica struct {
	cfg ReplicaConfig
	g   *graph.Graph

	banks [2]*bank
	// active is the served version (0 = warming; bank = active%2).
	active atomic.Uint64
	// swapping is 1 while the previous bank drains — the router
	// deprioritizes a replica in this window.
	swapping atomic.Int32

	ackScratch *rdma.MemRegion

	ackMu  sync.Mutex
	ackDst rdma.RemoteRegion
	hasAck bool

	runMu sync.Mutex // executors are single-flight; serialize inference
	iter  atomic.Int64

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	wg        sync.WaitGroup
}

// NewReplica registers the replica's two banks on its device and builds
// the per-bank forward executors (frozen: a graph with variable updates is
// rejected — serving memory is owned by the publisher). The feed must have
// a dynamic leading dim, so a batch runs at its real row count; a static
// one fails with ErrBadConfig.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Dev == nil || cfg.Layout == nil || cfg.Spec.Build == nil {
		return nil, fmt.Errorf("serve: replica needs Dev, Layout, Spec: %w", rdma.ErrBadConfig)
	}
	gb := graph.NewBuilder()
	if err := cfg.Spec.Build(gb); err != nil {
		return nil, fmt.Errorf("serve: building forward graph: %w", err)
	}
	g, err := gb.Finish()
	if err != nil {
		return nil, fmt.Errorf("serve: forward graph: %w", err)
	}
	feed, err := g.Node(cfg.Spec.Feed)
	if err != nil {
		return nil, fmt.Errorf("serve: forward feed: %v: %w", err, rdma.ErrBadConfig)
	}
	if sh := feed.Sig().Shape; sh.Rank() == 0 || sh[0] >= 0 {
		return nil, fmt.Errorf("serve: feed %q shape %v needs a dynamic leading dim: %w",
			cfg.Spec.Feed, sh, rdma.ErrBadConfig)
	}
	r := &Replica{cfg: cfg, g: g, stopCh: make(chan struct{})}
	for i := range r.banks {
		mr, err := cfg.Dev.AllocateMemRegion(cfg.Layout.BankBytes())
		if err != nil {
			return nil, fmt.Errorf("serve: bank %d: %w", i, err)
		}
		slot, err := rdma.NewStaticReceiver(mr, 0, cfg.Layout.Payload+versionWordSize)
		if err != nil {
			return nil, fmt.Errorf("serve: bank %d slot: %w", i, err)
		}
		vars, err := cfg.Layout.View(mr.Bytes()[:cfg.Layout.Payload])
		if err != nil {
			return nil, err
		}
		ex, err := exec.New(g, exec.Config{
			Workers: bankWorkers, Vars: vars, Frozen: true, Hists: cfg.Hists,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: bank %d executor: %w", i, err)
		}
		r.banks[i] = &bank{mr: mr, slot: slot, vars: vars, ex: ex}
	}
	r.ackScratch, err = cfg.Dev.AllocateMemRegion(versionWordSize)
	if err != nil {
		return nil, fmt.Errorf("serve: ack scratch: %w", err)
	}
	return r, nil
}

// Target returns the descriptor set the publisher writes through.
func (r *Replica) Target() ReplicaTarget {
	return ReplicaTarget{
		Task:  r.cfg.Task,
		Banks: [2]rdma.RemoteRegion{r.banks[0].mr.Descriptor(), r.banks[1].mr.Descriptor()},
	}
}

// SetAckRegion points release acks at the publisher's ack words.
func (r *Replica) SetAckRegion(dst rdma.RemoteRegion) {
	r.ackMu.Lock()
	defer r.ackMu.Unlock()
	r.ackDst, r.hasAck = dst, true
}

// Start launches the swap loop; idempotent.
func (r *Replica) Start() {
	r.startOnce.Do(func() {
		r.wg.Add(1)
		go r.swapLoop()
	})
}

// Close stops the swap loop (the device is owned by the fleet and closed
// separately); idempotent.
func (r *Replica) Close() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
}

// ActiveVersion returns the served weight version (0 while warming).
func (r *Replica) ActiveVersion() uint64 { return r.active.Load() }

// Swapping reports whether the replica is draining its previous bank.
func (r *Replica) Swapping() bool { return r.swapping.Load() != 0 }

// Task returns the replica's endpoint name.
func (r *Replica) Task() string { return r.cfg.Task }

// BankRef pins one bank at one version for the duration of a batch.
type BankRef struct {
	r       *Replica
	bank    *bank
	Version uint64
	once    sync.Once
}

// Release drops the pin; idempotent. Until every ref is released the
// publisher cannot overwrite the bank, which is what makes every served
// response bit-identical to a complete published snapshot.
func (ref *BankRef) Release() {
	ref.once.Do(func() { ref.bank.readers.Add(-1) })
}

// Acquire pins the active bank. ok is false while the replica is warming
// (nothing published yet).
func (r *Replica) Acquire() (*BankRef, bool) {
	for {
		v := r.active.Load()
		if v == 0 {
			return nil, false
		}
		b := r.banks[v%2]
		b.readers.Add(1)
		if r.active.Load() == v {
			return &BankRef{r: r, bank: b, Version: v}, true
		}
		// Swap landed between the load and the pin; retry against the new
		// active bank.
		b.readers.Add(-1)
	}
}

// Infer runs one forward batch against a pinned bank.
func (r *Replica) Infer(ref *BankRef, x *tensor.Tensor) (*tensor.Tensor, error) {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	out, err := ref.bank.ex.Run(int(r.iter.Add(1)), map[string]*tensor.Tensor{r.cfg.Spec.Feed: x}, r.cfg.Spec.Fetch)
	if err != nil {
		return nil, err
	}
	return out[r.cfg.Spec.Fetch], nil
}

// committed returns the newest committed version above cur found in the
// version word of a bank whose flag is set, or 0 if there is none.
func (r *Replica) committed(cur uint64) uint64 {
	var next uint64
	for b := 0; b < 2; b++ {
		if !r.banks[b].slot.Poll() {
			continue // no complete send since the bank was last released
		}
		w := r.banks[b].mr.LoadWord(r.cfg.Layout.VersionOff())
		// A bank only ever holds versions congruent to its index; skip an
		// inconsistent word.
		if w > cur && int(w%2) == b && w > next {
			next = w
		}
	}
	return next
}

// swapLoop is the replica's version watcher: poll both banks' flags, swap
// to a committed newer version (the flag is written only after the payload
// and version word, so a set flag implies a complete snapshot), drain the
// bank the previous version lived in, and release it to the publisher.
func (r *Replica) swapLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stopCh:
			return
		default:
		}
		cur := r.active.Load()
		next := r.committed(cur)
		if next == 0 {
			select {
			case <-r.stopCh:
				return
			case <-time.After(swapPoll):
			}
			continue
		}
		r.active.Store(next)
		if r.cfg.Metrics != nil {
			r.cfg.Metrics.AddBankSwap()
		}
		if cur > 0 {
			r.releaseBank(cur)
		}
	}
}

// releaseBank waits for the bank that held version v to drain, clears its
// flag, then posts the one-sided release ack the publisher's next
// overwrite waits on. The flag is cleared before the ack: once acked, the
// publisher may already be writing the bank, and a stale set flag over
// that write would expose a torn bank.
func (r *Replica) releaseBank(v uint64) {
	r.swapping.Store(1)
	defer r.swapping.Store(0)
	old := r.banks[v%2]
	for old.readers.Load() > 0 {
		select {
		case <-r.stopCh:
			return
		case <-time.After(swapPoll):
		}
	}
	old.slot.Consume()
	r.ackMu.Lock()
	dst, ok := r.ackDst, r.hasAck
	r.ackMu.Unlock()
	if !ok || r.cfg.PublisherTask == "" {
		return
	}
	ch, err := r.cfg.Dev.GetChannel(r.cfg.PublisherTask, 0)
	if err != nil {
		return // publisher gone; it re-wires acks on readmission
	}
	r.ackScratch.StoreWord(0, v)
	// Best effort: a lost ack stalls the publisher's next write into this
	// bank until its publish deadline, never the replica's serving path.
	_ = ch.MemcpySync(0, r.ackScratch, int(v%2)*versionWordSize, dst, versionWordSize, rdma.OpWrite)
}
