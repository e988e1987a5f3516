package metrics

import "sync/atomic"

// Recovery counts one cluster's failure-detection and crash-recovery
// activity: heartbeat traffic, lease expiries, checkpoint/rollback rounds,
// and task rejoins. Tests assert on these to prove a crash was detected by
// the lease detector (not just by a failing transfer) and that recovery
// actually rolled state back.
type Recovery struct {
	heartbeats  atomic.Int64
	missedBeats atomic.Int64
	expiries    atomic.Int64
	suspicions  atomic.Int64
	checkpoints atomic.Int64
	rollbacks   atomic.Int64
	recoveries  atomic.Int64
	rejoins     atomic.Int64
}

// RecoverySnapshot is an immutable view of a Recovery.
type RecoverySnapshot struct {
	// Heartbeats counts acknowledged lease pings; MissedBeats counts pings
	// that failed or timed out (several misses precede one expiry).
	Heartbeats  int64
	MissedBeats int64
	// LeaseExpiries counts tasks the detector declared dead.
	LeaseExpiries int64
	// FalseSuspicions (heartbeat_false_suspicions_total) counts lease
	// expiries that recovery refuted: the task's device was alive, so the
	// lease resumed and the cluster replayed from the last checkpoint.
	FalseSuspicions int64
	// Checkpoints counts completed cluster-wide snapshot rounds; Rollbacks
	// counts restores back to one.
	Checkpoints int64
	Rollbacks   int64
	// Recoveries counts recovery rounds driven to completion; Rejoins counts
	// restarted tasks re-registered on the fabric.
	Recoveries int64
	Rejoins    int64
}

// AddHeartbeat records one acknowledged lease ping.
func (r *Recovery) AddHeartbeat() { r.heartbeats.Add(1) }

// AddMissedBeat records one failed or timed-out lease ping.
func (r *Recovery) AddMissedBeat() { r.missedBeats.Add(1) }

// AddLeaseExpiry records one task declared dead by the detector.
func (r *Recovery) AddLeaseExpiry() { r.expiries.Add(1) }

// AddFalseSuspicion records one lease expiry refuted by a live device.
func (r *Recovery) AddFalseSuspicion() { r.suspicions.Add(1) }

// AddCheckpoint records one completed cluster-wide checkpoint.
func (r *Recovery) AddCheckpoint() { r.checkpoints.Add(1) }

// AddRollback records one cluster-wide restore to a checkpoint.
func (r *Recovery) AddRollback() { r.rollbacks.Add(1) }

// AddRecovery records one recovery round driven to completion.
func (r *Recovery) AddRecovery() { r.recoveries.Add(1) }

// AddRejoin records one restarted task re-registered on the fabric.
func (r *Recovery) AddRejoin() { r.rejoins.Add(1) }

// Snapshot returns the current counter values.
func (r *Recovery) Snapshot() RecoverySnapshot {
	return RecoverySnapshot{
		Heartbeats:      r.heartbeats.Load(),
		MissedBeats:     r.missedBeats.Load(),
		LeaseExpiries:   r.expiries.Load(),
		FalseSuspicions: r.suspicions.Load(),
		Checkpoints:     r.checkpoints.Load(),
		Rollbacks:       r.rollbacks.Load(),
		Recoveries:      r.recoveries.Load(),
		Rejoins:         r.rejoins.Load(),
	}
}
