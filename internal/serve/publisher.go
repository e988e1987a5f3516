package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/rdma"
)

// Publisher-side errors.
var (
	// ErrBankHeld is returned when a replica never releases the bank a
	// publication targets within the publish deadline: the staleness bound
	// forbids overwriting a bank a reader may still observe.
	ErrBankHeld = errors.New("serve: target bank not released in time")
)

// ReplicaTarget is everything the publisher needs to reach one replica's
// weight banks: the fabric endpoint and the two bank regions. It is
// produced by Replica.Target and crosses the control plane (an RPC during
// fleet setup), after which every publication is purely one-sided.
type ReplicaTarget struct {
	Task  string
	Banks [2]rdma.RemoteRegion
}

// PublisherConfig parameterizes NewWeightPublisher.
type PublisherConfig struct {
	// Dev is the trainer-side device publications are posted from.
	Dev *rdma.Device
	// Vars is the trainer's variable store (the snapshot source).
	Vars *exec.VarStore
	// Layout is the shared weight layout (LayoutFor over the same set).
	Layout *WeightLayout
	// Lanes stripes each bank write across this many QP lanes (default 1,
	// clamped to the device's QPsPerPeer and to rdma.MaxStripes).
	Lanes int
	// Metrics / Hists receive publication counters and latency (optional).
	Metrics *metrics.Serve
	Hists   *metrics.Set
}

// WeightPublisher pushes weight versions to a replica fleet. One Publish
// call snapshots the variable store once into registered scratch, then
// sends the blob to every replica's target bank concurrently through one
// striped static sender per bank — payload stripes first, the tail flag
// last, exactly the training path's flag-after-payload discipline.
type WeightPublisher struct {
	cfg     PublisherConfig
	scratch *rdma.MemRegion // staged snapshot + version word + tail flag
	// publishTimeout bounds one replica's publication end to end:
	// release-ack wait plus the send and its retries.
	publishTimeout time.Duration

	mu       sync.Mutex
	replicas map[string]*replicaState
	// staged is the last version snapshotted into scratch; committed the
	// last version every replica received in full. A failed fan-out leaves
	// staged ahead of committed: the version number is consumed (its bytes
	// may sit in some banks) but the trainer's externally visible version
	// — the one staleness is measured against — only advances on success.
	staged    uint64
	committed uint64
}

// replicaState is the publisher's view of one replica.
type replicaState struct {
	task string
	// banks[b] sends the staged scratch into the replica's bank b.
	banks [2]*rdma.StaticSender
	// ack is the local region the replica's release writes land in: word b
	// holds the highest version released from bank b (0 before the bank's
	// first release).
	ack *rdma.MemRegion
	// written[b] is the version bank b currently holds in this incarnation
	// (0 = never filled, so the first write into it needs no release).
	written [2]uint64
}

// NewWeightPublisher validates the config and registers the staging
// scratch on the publisher device.
func NewWeightPublisher(cfg PublisherConfig) (*WeightPublisher, error) {
	if cfg.Dev == nil || cfg.Vars == nil || cfg.Layout == nil {
		return nil, fmt.Errorf("serve: publisher needs Dev, Vars, Layout: %w", rdma.ErrBadConfig)
	}
	cfg.Lanes = min(max(cfg.Lanes, 1), rdma.MaxStripes)
	scratch, err := cfg.Dev.AllocateMemRegion(cfg.Layout.BankBytes())
	if err != nil {
		return nil, fmt.Errorf("serve: publisher scratch: %w", err)
	}
	return &WeightPublisher{
		cfg:            cfg,
		scratch:        scratch,
		publishTimeout: 5 * time.Second,
		replicas:       make(map[string]*replicaState),
	}, nil
}

// Version returns the last fully committed publication (0 before the
// first): the newest version every replica has received end to end, which
// is the reference point staleness is measured against. A version that is
// still fanning out is not yet the trainer's version — no replica can be
// blamed for not serving it.
func (p *WeightPublisher) Version() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.committed
}

// AckRegion returns the descriptor and word offset a replica's release
// acks must target. Registered (or re-registered, on restart) before the
// replica is published to.
func (p *WeightPublisher) AckRegion(task string) (rdma.RemoteRegion, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.replicas[task]
	if !ok {
		return rdma.RemoteRegion{}, fmt.Errorf("serve: unknown replica %q", task)
	}
	return r.ack.Descriptor(), nil
}

// AddReplica registers (or, after a restart, replaces) a replica target.
// A replaced target starts from empty banks: both release acks reset to
// the free sentinel and neither bank counts as written.
func (p *WeightPublisher) AddReplica(t ReplicaTarget) error {
	if t.Task == "" {
		return fmt.Errorf("serve: replica target without task: %w", rdma.ErrBadConfig)
	}
	var banks [2]*rdma.StaticSender
	for b, bank := range t.Banks {
		if int(bank.Size) < p.cfg.Layout.BankBytes() {
			return fmt.Errorf("serve: replica %s bank %d is %dB, need %dB: %w",
				t.Task, b, bank.Size, p.cfg.Layout.BankBytes(), rdma.ErrBadConfig)
		}
		s, err := p.bankSender(t.Task, bank)
		if err != nil {
			return fmt.Errorf("serve: replica %s bank %d sender: %w", t.Task, b, err)
		}
		banks[b] = s
	}
	ack, err := p.cfg.Dev.AllocateMemRegion(2 * versionWordSize)
	if err != nil {
		return fmt.Errorf("serve: ack region for %s: %w", t.Task, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.replicas[t.Task]
	if !ok {
		r = &replicaState{task: t.Task, ack: ack}
		p.replicas[t.Task] = r
	} else {
		// Restarted incarnation: fresh ack words, fresh banks. The old ack
		// region is abandoned (the dead incarnation can no longer write it).
		r.ack = ack
	}
	r.banks = banks
	r.written = [2]uint64{}
	r.ack.StoreWord(0, 0)
	r.ack.StoreWord(versionWordSize, 0)
	return nil
}

// RemoveReplica drops a replica from the publication set (a detector
// eviction): the trainer keeps publishing to the survivors, and a dead
// replica's unreleased banks can no longer stall anyone. A readmitted
// incarnation re-registers through AddReplica.
func (p *WeightPublisher) RemoveReplica(task string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.replicas, task)
}

// Publish snapshots the variable store as the next version and writes it
// to every registered replica concurrently. It returns the published
// version; a replica that fails (crashed mid-publication, bank never
// released) is reported in err but does not block the others — the caller
// evicts it through the routing table while the survivors serve on.
func (p *WeightPublisher) Publish() (uint64, error) {
	start := time.Now()
	p.mu.Lock()
	v := p.staged + 1
	if err := p.stageLocked(v); err != nil {
		p.mu.Unlock()
		return 0, err
	}
	p.staged = v
	targets := p.replicaListLocked()
	p.mu.Unlock()

	var wg sync.WaitGroup
	errs := make([]error, len(targets))
	for i, r := range targets {
		wg.Add(1)
		go func(i int, r *replicaState) {
			defer wg.Done()
			errs[i] = p.writeVersion(r, v)
		}(i, r)
	}
	wg.Wait()

	var firstErr error
	for i, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: publishing v%d to %s: %w", v, targets[i].task, err)
		}
	}
	if firstErr == nil {
		p.mu.Lock()
		p.committed = v
		p.mu.Unlock()
		if p.cfg.Metrics != nil {
			p.cfg.Metrics.AddPublish(p.cfg.Layout.Payload * len(targets))
		}
	}
	if p.cfg.Hists != nil {
		p.cfg.Hists.Hist(metrics.HistServePublishNs).Record(time.Since(start).Nanoseconds())
	}
	return v, firstErr
}

// Republish pushes the current (already staged) version to one replica —
// the catch-up path for a readmitted restart. The fresh target's banks are
// empty, so the write needs no release wait.
func (p *WeightPublisher) Republish(task string) (uint64, error) {
	p.mu.Lock()
	v := p.staged
	r, ok := p.replicas[task]
	p.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("serve: republish to unknown replica %q", task)
	}
	if v == 0 {
		return 0, nil // nothing published yet; the replica warms up normally
	}
	if err := p.writeVersion(r, v); err != nil {
		return 0, fmt.Errorf("serve: republishing v%d to %s: %w", v, task, err)
	}
	if p.cfg.Metrics != nil {
		p.cfg.Metrics.AddRepublish(p.cfg.Layout.Payload)
	}
	return v, nil
}

// stageLocked copies the store into scratch and stamps the staged version
// word. Caller holds p.mu.
func (p *WeightPublisher) stageLocked(v uint64) error {
	if err := p.cfg.Layout.Snapshot(p.cfg.Vars, p.scratch.Bytes()); err != nil {
		return err
	}
	p.scratch.StoreWord(p.cfg.Layout.VersionOff(), v)
	return nil
}

// replicaListLocked snapshots the replica set. Caller holds p.mu.
func (p *WeightPublisher) replicaListLocked() []*replicaState {
	out := make([]*replicaState, 0, len(p.replicas))
	for _, r := range p.replicas {
		out = append(out, r)
	}
	return out
}

// writeVersion performs one replica's publication of version v: wait for
// the target bank's release ack, then send the staged scratch into the bank
// striped across the lanes, retrying transient faults until the publish
// deadline.
func (p *WeightPublisher) writeVersion(r *replicaState, v uint64) error {
	deadline := time.Now().Add(p.publishTimeout)
	bank := int(v % 2)
	if err := p.waitBankFree(r, bank, deadline); err != nil {
		return err
	}
	p.mu.Lock()
	sender := r.banks[bank]
	p.mu.Unlock()
	// A zero deadline would select the rdma default; an ack that arrived at
	// the very end still gets one attempt, not a fresh budget.
	if err := sender.SendRetry(rdma.TransferOpts{
		Deadline: max(time.Until(deadline), time.Nanosecond),
		Stripes:  sender.Lanes(),
	}); err != nil {
		return err
	}
	p.mu.Lock()
	r.written[bank] = v
	p.mu.Unlock()
	return nil
}

// waitBankFree blocks until the replica has released whatever committed
// version the target bank currently holds (the replica swapped past it and
// its readers drained). A bank never filled in this incarnation needs no
// release — that covers the first two publications and every readmitted
// restart. This wait is the staleness bound's enforcement point: refusing
// to overwrite an unreleased bank is exactly what keeps a pinned reader's
// weights intact and the fleet within one version of the trainer.
func (p *WeightPublisher) waitBankFree(r *replicaState, bank int, deadline time.Time) error {
	p.mu.Lock()
	need := r.written[bank]
	p.mu.Unlock()
	if need == 0 {
		return nil
	}
	for {
		if ackd := r.ack.LoadWord(bank * versionWordSize); ackd >= need {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: bank %d of %s holds v%d unreleased",
				ErrBankHeld, bank, r.task, need)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// bankSender builds the static sender for one replica bank over the shared
// staging scratch: QP 0 plus one lane per further QP up to cfg.Lanes,
// stopping early when the device has fewer QPs per peer.
func (p *WeightPublisher) bankSender(task string, bank rdma.RemoteRegion) (*rdma.StaticSender, error) {
	ch, err := p.cfg.Dev.GetChannel(task, 0)
	if err != nil {
		return nil, err
	}
	s, err := rdma.NewStaticSender(ch, p.scratch, 0, rdma.StaticSlotDesc{
		Region: bank, PayloadSize: p.cfg.Layout.Payload + versionWordSize,
	})
	if err != nil {
		return nil, err
	}
	for i := 1; i < p.cfg.Lanes; i++ {
		ch, err := p.cfg.Dev.GetChannel(task, i)
		if errors.Is(err, rdma.ErrBadConfig) {
			break // device has fewer QPs per peer than requested lanes
		}
		if err != nil {
			return nil, err
		}
		if err := s.AddLane(ch); err != nil {
			return nil, err
		}
	}
	return s, nil
}
