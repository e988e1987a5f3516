package metrics

import "sync/atomic"

// Serve counts one process's serving-plane activity: weight publication on
// the trainer side, bank swaps on the replica side, and query admission at
// the frontend. Like Comm, it is a bag of atomics safe for concurrent use
// from every hot path.
type Serve struct {
	publishes      atomic.Int64
	publishedBytes atomic.Int64
	republishes    atomic.Int64
	bankSwaps      atomic.Int64
	served         atomic.Int64
	shed           atomic.Int64
	batches        atomic.Int64
	rejects        atomic.Int64

	stalenessMax   atomic.Int64
	activeReplicas atomic.Int64
}

// ServeSnapshot is an immutable view of a Serve.
type ServeSnapshot struct {
	// WeightPublishes counts completed publications across all replicas;
	// PublishedBytes the payload bytes they moved. Republishes counts
	// catch-up publications to readmitted replicas.
	WeightPublishes int64
	PublishedBytes  int64
	Republishes     int64
	// BankSwaps counts replica-side atomic switches to a new version.
	BankSwaps int64
	// QueriesServed / QueriesShed split admitted traffic from the bounded
	// queue's typed ErrOverloaded rejections; ServeBatches counts the
	// inference batches the admitted queries rode in. RoutingRejects
	// counts batches that found no routable replica.
	QueriesServed  int64
	QueriesShed    int64
	ServeBatches   int64
	RoutingRejects int64
	// StalenessVersionsMax is the largest trainer-minus-served version gap
	// any response observed (the staleness gate asserts ≤ 1).
	StalenessVersionsMax int64
	// ActiveReplicas is the routing table's current live replica count.
	ActiveReplicas int64
}

// AddPublish records one completed publication of n payload bytes.
func (s *Serve) AddPublish(n int) {
	s.publishes.Add(1)
	s.publishedBytes.Add(int64(n))
}

// AddRepublish records a catch-up publication to a readmitted replica.
func (s *Serve) AddRepublish(n int) {
	s.republishes.Add(1)
	s.publishedBytes.Add(int64(n))
}

// AddBankSwap records one replica-side version swap.
func (s *Serve) AddBankSwap() { s.bankSwaps.Add(1) }

// AddServed records n queries answered from one inference batch.
func (s *Serve) AddServed(n int) {
	s.served.Add(int64(n))
	s.batches.Add(1)
}

// AddShed records one query rejected by admission control.
func (s *Serve) AddShed() { s.shed.Add(1) }

// AddRoutingReject records a batch that found no routable replica.
func (s *Serve) AddRoutingReject() { s.rejects.Add(1) }

// ObserveStaleness folds one response's version gap into the running max.
func (s *Serve) ObserveStaleness(gap int64) {
	for {
		cur := s.stalenessMax.Load()
		if gap <= cur || s.stalenessMax.CompareAndSwap(cur, gap) {
			return
		}
	}
}

// SetActiveReplicas publishes the routing table's live replica count.
func (s *Serve) SetActiveReplicas(n int) { s.activeReplicas.Store(int64(n)) }

// Snapshot returns the current counter values.
func (s *Serve) Snapshot() ServeSnapshot {
	return ServeSnapshot{
		WeightPublishes:      s.publishes.Load(),
		PublishedBytes:       s.publishedBytes.Load(),
		Republishes:          s.republishes.Load(),
		BankSwaps:            s.bankSwaps.Load(),
		QueriesServed:        s.served.Load(),
		QueriesShed:          s.shed.Load(),
		ServeBatches:         s.batches.Load(),
		RoutingRejects:       s.rejects.Load(),
		StalenessVersionsMax: s.stalenessMax.Load(),
		ActiveReplicas:       s.activeReplicas.Load(),
	}
}

// Serving-plane histogram names (see the canonical list in histogram.go).
const (
	// HistServeBatchNs: end-to-end inference latency per served batch (ns).
	HistServeBatchNs = "serve_batch_ns"
	// HistServeQueueNs: per-query admission-to-dispatch queue wait (ns).
	HistServeQueueNs = "serve_queue_wait_ns"
	// HistServeBatchSize: queries per dispatched batch (count).
	HistServeBatchSize = "serve_batch_size"
	// HistServePublishNs: per-version publication latency across the
	// replica fleet (ns).
	HistServePublishNs = "serve_publish_ns"
)
