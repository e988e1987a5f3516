package serve

import (
	"sync"

	"repro/internal/metrics"
)

// RoutingTable load-balances query batches across replicas. The frontend
// takes a batch slot with pick and returns it with Done. pick prefers the
// serving replica with the fewest outstanding batches, skips replicas that
// are dead (heartbeat expiry) or warming (no version yet), and
// deprioritizes ones mid-swap — a swapping replica is draining its old
// bank, so steering new work elsewhere shortens the drain and with it the
// publisher's wait.
type RoutingTable struct {
	mu      sync.Mutex
	entries map[string]*routeEntry
	met     *metrics.Serve
}

type routeEntry struct {
	r           *Replica
	dead        bool
	outstanding int
}

// NewRoutingTable builds an empty table; met may be nil.
func NewRoutingTable(met *metrics.Serve) *RoutingTable {
	return &RoutingTable{entries: make(map[string]*routeEntry), met: met}
}

// Add admits a replica (or readmits a restarted one under the same task
// name, replacing the dead entry).
func (rt *RoutingTable) Add(r *Replica) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.entries[r.Task()] = &routeEntry{r: r}
	rt.publishActiveLocked()
}

// MarkDead evicts a replica from routing without forgetting it existed;
// the heartbeat detector's expiry callback lands here.
func (rt *RoutingTable) MarkDead(task string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if e, ok := rt.entries[task]; ok {
		e.dead = true
	}
	rt.publishActiveLocked()
}

// Alive reports whether the task is present and not marked dead.
func (rt *RoutingTable) Alive(task string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e, ok := rt.entries[task]
	return ok && !e.dead
}

// publishActiveLocked refreshes the live-replica gauge.
func (rt *RoutingTable) publishActiveLocked() {
	if rt.met == nil {
		return
	}
	n := 0
	for _, e := range rt.entries {
		if !e.dead {
			n++
		}
	}
	rt.met.SetActiveReplicas(n)
}

// pick selects a replica for one batch: least outstanding work among live,
// serving, non-swapping replicas; if every live replica is mid-swap, the
// least loaded of those (serving from the new bank is still correct during
// a drain — deprioritizing is a latency choice, not a safety one). It
// returns nil when no live replica has a version to serve, and then also
// reports whether a live replica holds a staged version: one its swap loop
// has not activated yet. Both answers come from one read of each replica's
// active version: a swap that lands mid-pick leaves the bank's flag and
// version word set, so the replica it activates still reads as staged and
// the caller retries rather than failing.
func (rt *RoutingTable) pick() (r *Replica, staged bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var best, bestSwapping *routeEntry
	for _, e := range rt.entries {
		if e.dead {
			continue
		}
		if v := e.r.ActiveVersion(); v == 0 {
			staged = staged || e.r.committed(v) != 0
			continue
		}
		if e.r.Swapping() {
			if bestSwapping == nil || e.outstanding < bestSwapping.outstanding {
				bestSwapping = e
			}
			continue
		}
		if best == nil || e.outstanding < best.outstanding {
			best = e
		}
	}
	if best == nil {
		best = bestSwapping
	}
	if best == nil {
		return nil, staged
	}
	best.outstanding++
	return best.r, false
}

// size returns the number of replicas the table holds, dead ones included.
func (rt *RoutingTable) size() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.entries)
}

// Done returns a batch slot taken by pick.
func (rt *RoutingTable) Done(task string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if e, ok := rt.entries[task]; ok && e.outstanding > 0 {
		e.outstanding--
	}
}
