// Package chaos is the fault-injection subsystem for the emulated RDMA
// fabric. It turns the rdma.Hooks seam into a seeded, deterministic fault
// schedule: transfer drops, transient peer unavailability, artificial
// latency, duplicated and delayed completions, flag-write reordering, and
// two-sided message drops, plus a timed partition/heal script driven
// against the fabric itself.
//
// Determinism: every probabilistic decision is a pure function of
// (plan seed, fault kind, decision index). The i-th decision of a given
// kind is therefore the same across runs regardless of goroutine
// interleaving; what varies is only which work request draws which index.
// That is enough to make chaos test failures reproducible from a seed
// while the fabric stays fully concurrent.
package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/rdma"
)

// Fault enumerates the injectable fault kinds (the taxonomy DESIGN.md §8
// documents).
type Fault int

// The injectable fault taxonomy.
const (
	// Drop fails a one-sided transfer before it touches memory (a
	// dropped/NAKed work request). Wraps rdma.ErrInjected: retryable.
	Drop Fault = iota
	// Unavailable fails a one-sided transfer with rdma.ErrUnreachable, a
	// transient flap of the peer rather than a standing partition.
	Unavailable
	// Delay stalls a one-sided transfer for a bounded random latency.
	Delay
	// Reorder makes a write's final word (the flag) visible before its
	// payload, violating the in-order DMA guarantee.
	Reorder
	// DupCompletion posts a transfer's completion twice.
	DupCompletion
	// DelayCompletion holds a transfer's completion back.
	DelayCompletion
	// MsgDrop fails a two-sided message send (RPC traffic).
	MsgDrop
	// ChunkDrop silently loses a semantically tagged chunk write on a lossy
	// fabric — no error, no NAK; recovery is the lossy protocol's per-tensor
	// selective retransmit (rdma.LossySender).
	ChunkDrop
	// ChunkStale counts tagged chunks the receiver's epoch guard discarded
	// (a retransmit straggling past its iteration).
	ChunkStale
	// PartitionEvent counts script-driven Partition/Heal transitions.
	PartitionEvent
	// CrashEvent counts script-driven task crashes and restarts.
	CrashEvent

	numFaults
)

func (f Fault) String() string {
	switch f {
	case Drop:
		return "drop"
	case Unavailable:
		return "unavailable"
	case Delay:
		return "delay"
	case Reorder:
		return "reorder"
	case DupCompletion:
		return "dup-completion"
	case DelayCompletion:
		return "delay-completion"
	case MsgDrop:
		return "msg-drop"
	case ChunkDrop:
		return "chunk-drop"
	case ChunkStale:
		return "chunk-stale"
	case PartitionEvent:
		return "partition-event"
	case CrashEvent:
		return "crash-event"
	default:
		return "unknown"
	}
}

// Event is one entry of a timed fault script. Two shapes:
//
//   - Partition: At after Start the pair (A, B) is partitioned; if Heal > 0
//     the partition heals that much later, otherwise it stands until Stop.
//   - Crash: At after Start the task named by Crash is killed via the
//     plan's Crash callback; if Heal > 0 the plan's Restart callback runs
//     that much later (a process-restart delay), otherwise the task stays
//     down until something external restarts it.
type Event struct {
	At    time.Duration
	A, B  string
	Heal  time.Duration
	Crash string
}

// Plan is a seeded fault schedule. Rates are per-decision probabilities in
// [0, 1]; zero disables that fault. The zero Plan injects nothing.
type Plan struct {
	// Seed makes the schedule reproducible. Plans with the same seed and
	// rates make identical decision sequences per fault kind.
	Seed int64

	// DropRate drops one-sided transfers (retryable rdma.ErrInjected).
	DropRate float64
	// UnavailableRate fails one-sided transfers with rdma.ErrUnreachable.
	UnavailableRate float64
	// DelayRate stalls one-sided transfers for up to MaxDelay.
	DelayRate float64
	// MaxDelay bounds injected latency (default 1ms when a delay rate is
	// set but no bound given).
	MaxDelay time.Duration
	// ReorderRate makes writes flag-first (payload visible after flag).
	ReorderRate float64
	// DupCompletionRate duplicates transfer completions.
	DupCompletionRate float64
	// DelayCompletionRate delays transfer completions by up to MaxDelay.
	DelayCompletionRate float64
	// MsgDropRate drops two-sided messages (RPC requests and responses).
	MsgDropRate float64
	// ChunkDropRate silently loses semantically tagged chunk writes (the
	// lossy-fabric model): the sender sees a successful completion, the
	// bytes never land, and recovery is the per-tensor selective-retransmit
	// protocol. A non-zero rate switches the hook set's Lossy mode on.
	ChunkDropRate float64
	// TargetTensor, when non-zero, restricts chunk loss to the one tensor
	// with that id — the blackhole scenario (with ChunkDropRate 1.0, every
	// chunk of exactly that tensor is lost and its edge must fail typed and
	// bounded). Filtering happens before the deterministic decision draw,
	// so the decision stream for the targeted tensor is unchanged by other
	// tensors' traffic volume.
	TargetTensor uint64

	// Script is the timed partition/heal and crash/restart sequence,
	// applied from Start.
	Script []Event

	// Crash kills the named task when a Crash event fires. The injector
	// knows fabric wiring, not cluster membership, so killing a task (close
	// its device and RPC server mid-step) is delegated to the harness —
	// typically Cluster.KillTask.
	Crash func(task string)
	// Restart restores a crashed task when its Heal delay elapses. Optional:
	// recovery-driven harnesses usually leave restart to the recovery
	// protocol and only script the kill.
	Restart func(task string)

	// Metrics, when non-nil, receives AddFaultInjected for every injected
	// fault (the aggregate counter the test harness asserts on).
	Metrics *metrics.Comm
}

// Injector owns one installed plan: it builds the rdma.Hooks, runs the
// partition script, and counts what it injected.
type Injector struct {
	plan   Plan
	fabric *rdma.Fabric

	seq      [numFaults]atomic.Uint64 // decision index per fault kind
	injected [numFaults]atomic.Int64

	mu      sync.Mutex
	timers  []*time.Timer
	parted  map[[2]string]int // active partitions, refcounted
	started bool
	stopped bool
}

// New builds an injector for the plan. Install it on a fabric, then Start
// the script.
func New(plan Plan) *Injector {
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = time.Millisecond
	}
	return &Injector{plan: plan, parted: make(map[[2]string]int)}
}

// decide makes the next deterministic decision for the fault kind; draw is
// the unit-interval sample it was made from (for derived magnitudes).
func (i *Injector) decide(f Fault, rate float64) (hit bool, draw float64) {
	if rate <= 0 {
		return false, 0
	}
	n := i.seq[f].Add(1)
	draw = unitFloat(splitmix64(uint64(i.plan.Seed) ^ faultSalt(f) ^ n))
	if draw >= rate {
		return false, draw
	}
	i.injected[f].Add(1)
	if i.plan.Metrics != nil {
		i.plan.Metrics.AddFaultInjected()
	}
	return true, draw
}

// delayFor scales the draw into (0, MaxDelay].
func (i *Injector) delayFor(draw float64) time.Duration {
	d := time.Duration(draw * float64(i.plan.MaxDelay))
	if d <= 0 {
		d = time.Microsecond
	}
	return d
}

// Hooks returns the fault-injecting hook set for this plan. Install wires
// it into a fabric; tests may also compose it manually.
func (i *Injector) Hooks() rdma.Hooks {
	return rdma.Hooks{
		TransferFault: func(op rdma.Op, size int) error {
			if hit, _ := i.decide(Drop, i.plan.DropRate); hit {
				return fmt.Errorf("chaos: dropped %s of %d bytes: %w", op, size, rdma.ErrInjected)
			}
			if hit, _ := i.decide(Unavailable, i.plan.UnavailableRate); hit {
				return fmt.Errorf("chaos: peer flap on %s of %d bytes: %w", op, size, rdma.ErrUnreachable)
			}
			return nil
		},
		TransferDelay: func(op rdma.Op, size int) time.Duration {
			if hit, draw := i.decide(Delay, i.plan.DelayRate); hit {
				return i.delayFor(draw)
			}
			return 0
		},
		WriteReorder: func(op rdma.Op, size int) bool {
			hit, _ := i.decide(Reorder, i.plan.ReorderRate)
			return hit
		},
		CompletionFault: func(op rdma.Op, size int) rdma.CompletionFault {
			var cf rdma.CompletionFault
			if hit, _ := i.decide(DupCompletion, i.plan.DupCompletionRate); hit {
				cf.Duplicate = true
			}
			if hit, draw := i.decide(DelayCompletion, i.plan.DelayCompletionRate); hit {
				cf.Delay = i.delayFor(draw)
			}
			return cf
		},
		MessageFault: func(size int) error {
			if hit, _ := i.decide(MsgDrop, i.plan.MsgDropRate); hit {
				return fmt.Errorf("chaos: dropped %d-byte message: %w", size, rdma.ErrInjected)
			}
			return nil
		},
		Lossy: i.plan.ChunkDropRate > 0,
		ChunkDrop: func(tag rdma.ChunkTag, size int) bool {
			if i.plan.TargetTensor != 0 && tag.TensorID != i.plan.TargetTensor {
				return false
			}
			hit, _ := i.decide(ChunkDrop, i.plan.ChunkDropRate)
			return hit
		},
		OnChunkStale: func(tag rdma.ChunkTag) {
			i.injected[ChunkStale].Add(1)
		},
	}
}

// Install sets the injector's hooks on the fabric and binds the partition
// script to it. Safe while transfers are in flight.
func (i *Injector) Install(f *rdma.Fabric) {
	i.mu.Lock()
	i.fabric = f
	i.mu.Unlock()
	f.SetHooks(i.Hooks())
}

// Start launches the timed partition script. Call after Install.
func (i *Injector) Start() {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.started || i.fabric == nil {
		return
	}
	i.started = true
	for _, ev := range i.plan.Script {
		ev := ev
		apply := func() { i.applyPartition(ev) }
		if ev.Crash != "" {
			apply = func() { i.applyCrash(ev) }
		}
		i.timers = append(i.timers, time.AfterFunc(ev.At, apply))
	}
}

func (i *Injector) applyCrash(ev Event) {
	i.mu.Lock()
	if i.stopped {
		i.mu.Unlock()
		return
	}
	crash := i.plan.Crash
	if ev.Heal > 0 && i.plan.Restart != nil {
		restart := i.plan.Restart
		i.timers = append(i.timers, time.AfterFunc(ev.Heal, func() {
			i.mu.Lock()
			stopped := i.stopped
			i.mu.Unlock()
			if stopped {
				return
			}
			// Count before the callback: whoever it unblocks must see
			// the counter already moved.
			i.injected[CrashEvent].Add(1)
			restart(ev.Crash)
		}))
	}
	i.mu.Unlock()
	i.injected[CrashEvent].Add(1)
	if i.plan.Metrics != nil {
		i.plan.Metrics.AddFaultInjected()
	}
	if crash != nil {
		crash(ev.Crash)
	}
}

func (i *Injector) applyPartition(ev Event) {
	i.mu.Lock()
	if i.stopped {
		i.mu.Unlock()
		return
	}
	key := pairKey(ev.A, ev.B)
	i.parted[key]++
	f := i.fabric
	if ev.Heal > 0 {
		i.timers = append(i.timers, time.AfterFunc(ev.Heal, func() { i.healPartition(key) }))
	}
	i.mu.Unlock()
	f.Partition(ev.A, ev.B)
	i.injected[PartitionEvent].Add(1)
	if i.plan.Metrics != nil {
		i.plan.Metrics.AddFaultInjected()
	}
}

func (i *Injector) healPartition(key [2]string) {
	i.mu.Lock()
	if i.stopped || i.parted[key] == 0 {
		i.mu.Unlock()
		return
	}
	i.parted[key]--
	heal := i.parted[key] == 0
	f := i.fabric
	i.mu.Unlock()
	if heal {
		f.Heal(key[0], key[1])
	}
	i.injected[PartitionEvent].Add(1)
}

// Stop cancels pending script events, heals every partition the script
// applied, and clears the fabric's hooks so teardown runs fault-free.
func (i *Injector) Stop() {
	i.mu.Lock()
	if i.stopped {
		i.mu.Unlock()
		return
	}
	i.stopped = true
	timers := i.timers
	i.timers = nil
	f := i.fabric
	var pairs [][2]string
	for key, n := range i.parted {
		if n > 0 {
			pairs = append(pairs, key)
		}
	}
	i.parted = make(map[[2]string]int)
	i.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	if f != nil {
		for _, p := range pairs {
			f.Heal(p[0], p[1])
		}
		f.SetHooks(rdma.Hooks{})
	}
}

// Counters is a snapshot of injection activity per fault kind.
type Counters struct {
	// Checked counts decisions consulted; Injected counts faults fired.
	Checked, Injected map[Fault]int64
}

// Total sums injected faults across kinds.
func (c Counters) Total() int64 {
	var n int64
	for _, v := range c.Injected {
		n += v
	}
	return n
}

// Counters snapshots the per-kind decision and injection counts.
func (i *Injector) Counters() Counters {
	c := Counters{Checked: make(map[Fault]int64), Injected: make(map[Fault]int64)}
	for f := Fault(0); f < numFaults; f++ {
		if n := int64(i.seq[f].Load()); n != 0 {
			c.Checked[f] = n
		}
		if n := i.injected[f].Load(); n != 0 {
			c.Injected[f] = n
		}
	}
	return c
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// splitmix64 is the SplitMix64 mixing function: a bijective avalanche hash
// used to derive independent per-decision randomness from (seed, kind, n).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultSalt decorrelates the decision streams of different fault kinds.
func faultSalt(f Fault) uint64 {
	return splitmix64(0xc4a05f17 + uint64(f)*0x9e3779b97f4a7c15)
}

// unitFloat maps a hash to [0, 1).
func unitFloat(x uint64) float64 {
	return float64(x>>11) / float64(1<<53)
}
