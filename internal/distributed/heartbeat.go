package distributed

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/rdma"
)

// Control-plane failure detection: every task's device answers a lease ping
// over the vanilla-RPC seam (the §3.1 auxiliary channel — membership is
// control-plane traffic, like address distribution), and one monitor device
// pings each task once per period. A task that stays silent past the lease
// timeout is declared dead exactly once per outage; the recovery driver
// confirms the expiry, suspends the lease while it rebuilds, and resumes it
// once the task has rejoined.

// leasePingMethod is the device-RPC method every server answers; the
// monitor's echo round-trip is one heartbeat.
const leasePingMethod = "lease.ping"

// monitorEndpoint is the detector's own fabric address. It is a device like
// any other, so its pings traverse the same QPs, hooks, and partitions as
// data traffic — a partitioned task really does look dead.
const monitorEndpoint = "hb-monitor"

// HeartbeatConfig tunes the lease failure detector.
type HeartbeatConfig struct {
	// Period between lease pings to each task (default 10ms).
	Period time.Duration
	// Timeout is the lease duration: a task that has not acked a ping for
	// this long is declared dead (default 10 × Period).
	Timeout time.Duration
}

func (h *HeartbeatConfig) setDefaults() {
	if h.Period <= 0 {
		h.Period = 10 * time.Millisecond
	}
	if h.Timeout <= 0 {
		h.Timeout = 10 * h.Period
	}
}

// heartbeatDetector runs one watcher goroutine per task, tracking the last
// acknowledged ping and firing onExpire once when a lease lapses.
type heartbeatDetector struct {
	cfg HeartbeatConfig
	mon *rdma.Device
	met *metrics.Recovery
	// onExpire runs on its own goroutine, at most once per outage.
	onExpire func(task string)

	mu        sync.Mutex
	lastAck   map[string]time.Time
	expired   map[string]bool
	suspended map[string]bool

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

func newHeartbeatDetector(fabric *rdma.Fabric, tasks []string, cfg HeartbeatConfig,
	met *metrics.Recovery, onExpire func(task string)) (*heartbeatDetector, error) {
	cfg.setDefaults()
	mon, err := rdma.CreateDevice(fabric, rdma.Config{
		Endpoint: monitorEndpoint, NumCQs: 1, QPsPerPeer: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: creating heartbeat monitor: %w", ErrSetup, err)
	}
	d := &heartbeatDetector{
		cfg: cfg, mon: mon, met: met, onExpire: onExpire,
		lastAck:   make(map[string]time.Time, len(tasks)),
		expired:   make(map[string]bool, len(tasks)),
		suspended: make(map[string]bool, len(tasks)),
		stopCh:    make(chan struct{}),
	}
	now := time.Now()
	for _, task := range tasks {
		d.lastAck[task] = now
	}
	return d, nil
}

func (d *heartbeatDetector) start() {
	d.mu.Lock()
	tasks := make([]string, 0, len(d.lastAck))
	for task := range d.lastAck {
		tasks = append(tasks, task)
	}
	d.mu.Unlock()
	for _, task := range tasks {
		d.wg.Add(1)
		go d.watch(task)
	}
}

// watch is the per-task lease loop. A ping is a device-RPC echo; channels to
// a restarted endpoint keep working because the fabric resolves the endpoint
// name per message, so one watcher spans task incarnations.
func (d *heartbeatDetector) watch(task string) {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-ticker.C:
		}
		ok := false
		if ch, err := d.mon.GetChannel(task, 0); err == nil {
			// The call deadline is the lease itself: a slow ack that lands
			// within the lease still renews it, while a dead peer fails the
			// send in microseconds (ErrNoSuchPeer / ErrUnreachable).
			_, cerr := ch.Call(leasePingMethod, nil, d.cfg.Timeout)
			ok = cerr == nil
		}
		d.note(task, ok)
	}
}

func (d *heartbeatDetector) note(task string, ok bool) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.suspended[task] {
		return
	}
	if ok {
		d.met.AddHeartbeat()
		d.lastAck[task] = now
		return
	}
	d.met.AddMissedBeat()
	if d.expired[task] || now.Sub(d.lastAck[task]) < d.cfg.Timeout {
		return
	}
	d.expired[task] = true
	d.met.AddLeaseExpiry()
	if d.onExpire != nil {
		go d.onExpire(task)
	}
}

// confirmDead blocks until the detector has expired the task's lease, or
// until wait elapses. Recovery uses it so a step error that outraces the
// detector still waits for (and asserts) lease-based detection.
func (d *heartbeatDetector) confirmDead(task string, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		d.mu.Lock()
		ex := d.expired[task]
		d.mu.Unlock()
		if ex {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(d.cfg.Period / 4)
	}
}

// suspend pauses a task's lease while recovery rebuilds it, so the restart
// window is not scored as a second outage.
func (d *heartbeatDetector) suspend(task string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.suspended[task] = true
}

// suspendRefuted suspends every expired lease whose task is not in dead —
// the device is alive, so the expiry was a stalled ping, not a crash — and
// returns those tasks. Like a dead task's lease, each stays suspended while
// recovery rebuilds the cluster, and resume grants it afresh.
func (d *heartbeatDetector) suspendRefuted(dead []string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var refuted []string
	for task, ex := range d.expired {
		if ex && !d.suspended[task] && !contains(dead, task) {
			d.suspended[task] = true
			refuted = append(refuted, task)
		}
	}
	return refuted
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// resume restores a task's lease with a fresh grant.
func (d *heartbeatDetector) resume(task string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastAck[task] = time.Now()
	d.expired[task] = false
	d.suspended[task] = false
}

func (d *heartbeatDetector) stop() {
	d.stopOnce.Do(func() { close(d.stopCh) })
	d.wg.Wait()
	d.mon.Close()
}
