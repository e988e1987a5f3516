package distributed

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rdma"
	"repro/internal/tensor"
)

// Elastic crash recovery (the PR's tentpole). The pieces:
//
//   - a heartbeat/lease failure detector (heartbeat.go) that declares a
//     silent task dead and aborts the in-flight step;
//   - periodic cluster-wide checkpoints taken at step boundaries, held in
//     memory per task (a restarted task needs its own variables back, store
//     merging cannot provide them);
//   - a recovery driver that, on a detected crash or a typed step failure,
//     severs the dead peer's QPs on every survivor, restarts the task under
//     its old endpoint name, re-runs the full edge setup (stripe lanes and
//     coalesce groups included), rebuilds the task's executor, rolls every
//     task back to the last completed checkpoint, and resumes the loop.
//
// Rolling back ALL tasks — not just the restarted one — is what makes the
// resumed run bit-identical to an uninterrupted one: a mid-step crash
// leaves survivors half-updated, and replaying from a consistent snapshot
// with deterministic kernels reproduces exactly the lost steps.

// RecoveryConfig parameterizes EnableRecovery.
type RecoveryConfig struct {
	// Heartbeat tunes the lease failure detector.
	Heartbeat HeartbeatConfig
	// CheckpointEvery takes a cluster-wide snapshot every N completed steps
	// (default 5). The step-0 baseline is always taken.
	CheckpointEvery int
	// MaxRecoveries bounds recovery rounds per Run (default 3): a crash loop
	// should surface, not spin.
	MaxRecoveries int
}

func (r *RecoveryConfig) setDefaults() {
	if r.CheckpointEvery <= 0 {
		r.CheckpointEvery = 5
	}
	if r.MaxRecoveries <= 0 {
		r.MaxRecoveries = 3
	}
}

// Recovery owns a cluster's failure detector and checkpoint/rollback state.
type Recovery struct {
	c   *Cluster
	cfg RecoveryConfig
	det *heartbeatDetector
	met *metrics.Recovery

	mu       sync.Mutex
	snaps    map[string][]byte // per-task VarStore snapshot at ckptIter
	ckptIter int

	// refutedSinceStep is set by a recovery round that refuted a lease
	// suspicion and cleared by the next completed step (Run's goroutine
	// only).
	refutedSinceStep bool
}

// EnableRecovery starts the heartbeat detector and returns the recovery
// driver. It requires a mechanism that runs over the emulated fabric (the
// detector's leases and the crash teardown act on devices and QPs).
func (c *Cluster) EnableRecovery(cfg RecoveryConfig) (*Recovery, error) {
	if c.cfg.Kind.UsesRPC() {
		return nil, fmt.Errorf("%w: recovery requires an RDMA mechanism, not %v", ErrSetup, c.cfg.Kind)
	}
	c.mu.RLock()
	already := c.recovery != nil
	c.mu.RUnlock()
	if already {
		return nil, fmt.Errorf("%w: recovery already enabled", ErrSetup)
	}
	cfg.setDefaults()
	r := &Recovery{c: c, cfg: cfg, met: &metrics.Recovery{}, snaps: make(map[string][]byte)}
	det, err := newHeartbeatDetector(c.fabric, c.result.Tasks, cfg.Heartbeat, r.met,
		func(task string) {
			c.abortAll(fmt.Errorf("lease expired for task %s", task))
		})
	if err != nil {
		return nil, err
	}
	r.det = det
	c.mu.Lock()
	c.recovery = r
	c.mu.Unlock()
	det.start()
	return r, nil
}

// Metrics returns the detector and recovery counters.
func (r *Recovery) Metrics() metrics.RecoverySnapshot { return r.met.Snapshot() }

func (r *Recovery) stop() { r.det.stop() }

// Run drives iters training steps with periodic checkpoints and crash
// recovery. onStep (optional) observes each completed step's fetches.
// Non-recoverable step errors — and crash loops past MaxRecoveries — are
// returned; everything the recovery protocol can handle is handled.
func (r *Recovery) Run(iters int, feeds map[string]map[string]*tensor.Tensor,
	fetches map[string][]string, onStep func(iter int, out map[string]map[string]*tensor.Tensor)) error {
	if err := r.checkpoint(0); err != nil {
		return err
	}
	recoveries := 0
	for iter := 0; iter < iters; {
		if r.shouldCheckpoint(iter) {
			if err := r.checkpoint(iter); err != nil {
				return err
			}
		}
		out, err := r.c.Step(iter, feeds, fetches)
		if err != nil {
			if !recoverableStepError(err) {
				return err
			}
			recoveries++
			if recoveries > r.cfg.MaxRecoveries {
				return fmt.Errorf("distributed: %d recoveries exhausted: %w", r.cfg.MaxRecoveries, err)
			}
			resumeIter, rerr := r.recover(err)
			if rerr != nil {
				return fmt.Errorf("distributed: recovering from step %d (%v): %w", iter, err, rerr)
			}
			iter = resumeIter
			continue
		}
		r.refutedSinceStep = false
		if onStep != nil {
			onStep(iter, out)
		}
		iter++
	}
	return nil
}

func (r *Recovery) shouldCheckpoint(iter int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return iter > 0 && iter != r.ckptIter && iter%r.cfg.CheckpointEvery == 0
}

// checkpoint snapshots every server's variable store at a step boundary.
// Snapshots are per task: a restarted task restores its own variables (and
// optimizer slots) from its own slice of the checkpoint.
func (r *Recovery) checkpoint(iter int) error {
	snaps := make(map[string][]byte)
	for task, srv := range r.c.serversSnapshot() {
		var buf bytes.Buffer
		if err := srv.VarStore.Save(&buf); err != nil {
			return fmt.Errorf("distributed: checkpointing %s at step %d: %w", task, iter, err)
		}
		snaps[task] = buf.Bytes()
	}
	r.mu.Lock()
	r.snaps, r.ckptIter = snaps, iter
	r.mu.Unlock()
	r.met.AddCheckpoint()
	return nil
}

// recoverableStepError reports whether a step failure is one the recovery
// protocol handles: an abort (detector-initiated or crash-propagated), a
// starved polling backstop, an exhausted edge, or a torn-down device. Setup
// bugs and non-transport failures propagate.
func recoverableStepError(err error) bool {
	return errors.Is(err, exec.ErrAborted) ||
		errors.Is(err, exec.ErrPollTimeout) ||
		errors.Is(err, ErrEdgeTimeout) ||
		errors.Is(err, rdma.ErrClosed) ||
		errors.Is(err, rdma.ErrNoSuchPeer)
}

// recover is the crash-recovery protocol. It returns the step to resume
// from (the last completed checkpoint).
func (r *Recovery) recover(cause error) (int, error) {
	// 1. Stop everything still running against the dead incarnation.
	r.c.abortAll(cause)
	// 2. Identify the crashed tasks: their devices are closed. An expired
	// lease whose device is alive is a refuted suspicion — a lease ping
	// stalled past the timeout (a loaded host), not a crash — so the
	// cluster replays from the checkpoint as after a crash, minus the
	// restart, and the lease resumes with the replay. A step that failed
	// with every device alive and no lease expired (e.g. a never-healing
	// partition between live tasks) is not a crash and recovery cannot fix
	// it; nor is a second refuted suspicion before any step completed.
	dead := r.c.deadTasks()
	refuted := r.det.suspendRefuted(dead)
	for range refuted {
		r.met.AddFalseSuspicion()
	}
	if len(dead) == 0 {
		if len(refuted) == 0 {
			return 0, fmt.Errorf("%w: step failed (%v) but every device is alive — not a crash", ErrSetup, cause)
		}
		if r.refutedSinceStep {
			for _, task := range refuted {
				r.det.resume(task)
			}
			return 0, fmt.Errorf("%w: step failed (%v) after a refuted lease suspicion with no step completed since — not a crash", ErrSetup, cause)
		}
		r.refutedSinceStep = true
	}
	// 3. The lease detector must agree within its configured timeout — the
	// data plane often notices first (a send fails in microseconds), but
	// membership decisions belong to the control plane. Then suspend the
	// lease so the rebuild window is not scored as a second outage.
	confirmBudget := r.det.cfg.Timeout + 4*r.det.cfg.Period + 250*time.Millisecond
	for _, task := range dead {
		if !r.det.confirmDead(task, confirmBudget) {
			return 0, fmt.Errorf("%w: device %s is down but its lease never expired", ErrSetup, task)
		}
		r.det.suspend(task)
	}
	// 4. Sever every survivor's QPs to the dead endpoints, then restart the
	// tasks under their old names. Ordering matters: no stale queued work
	// request may survive into the new incarnation's lifetime.
	for _, task := range dead {
		r.c.severPeer(task)
	}
	for _, task := range dead {
		if err := r.c.restartTask(task); err != nil {
			return 0, err
		}
		r.met.AddRejoin()
	}
	// 5. Rebuild the full edge state — slots, descriptors, stripe lanes,
	// coalesce groups — across all tasks, and fresh executors for the
	// restarted ones.
	if err := r.c.rebuildEdges(); err != nil {
		return 0, err
	}
	for _, task := range dead {
		if err := r.c.buildExecutor(r.c.Server(task)); err != nil {
			return 0, err
		}
	}
	// 6. Roll EVERY task back to the last completed checkpoint (see the
	// file comment for why survivors roll back too).
	r.mu.Lock()
	snaps, ckptIter := r.snaps, r.ckptIter
	r.mu.Unlock()
	for task, snap := range snaps {
		if err := r.c.restoreTask(task, snap); err != nil {
			return 0, err
		}
	}
	r.met.AddRollback()
	// 7. Leases resume; the loop replays from the checkpoint.
	for _, task := range append(dead, refuted...) {
		r.det.resume(task)
	}
	r.met.AddRecovery()
	return ckptIter, nil
}

// restoreTask rolls one task back to its slice of a checkpoint. Restores
// are in place; variables a restarted task no longer has are recreated with
// the same placement InitVariable would choose — a transferred graph
// variable goes back inside its sender staging slot (zero-copy, §3.4),
// everything else (optimizer slots) on the heap.
func (c *Cluster) restoreTask(task string, snap []byte) error {
	srv := c.Server(task)
	if srv == nil {
		return fmt.Errorf("%w: no server for task %q", ErrSetup, task)
	}
	return srv.VarStore.LoadInto(bytes.NewReader(snap),
		func(name string, dt tensor.DType, shape tensor.Shape) (*tensor.Tensor, error) {
			if node, err := c.result.Graph.Node(name); err == nil &&
				graph.IsVariable(node) && c.cfg.Kind.ZeroCopy() {
				if slot, staged := srv.stagings[name]; staged {
					return slot.tensor, nil
				}
			}
			return tensor.New(dt, shape...), nil
		})
}
