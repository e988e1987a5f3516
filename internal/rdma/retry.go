package rdma

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Deadline/retry hardening for the transfer protocols. The paper assumes a
// lossless fabric; production deployments do not get one. Every blocking
// operation in this file is bounded by a deadline and retries transient
// failures with exponential backoff, so a misbehaving peer yields a typed
// error instead of a hung scheduler.

// ErrTimeout is returned when a bounded transfer operation exhausts its
// deadline or retry budget. It always wraps the last underlying error, so
// errors.Is can still see e.g. ErrUnreachable through it.
var ErrTimeout = errors.New("rdma: transfer deadline exceeded")

// ErrCanceled is returned when TransferOpts.Canceled reports the caller no
// longer wants the transfer. Like ErrTimeout it is fatal: a canceled
// operation must never be retried, because the memory it would write into
// may already be reused by whoever aborted it.
var ErrCanceled = errors.New("rdma: transfer canceled")

// Retryable classifies an error as transient (worth retrying: the fault may
// heal) versus fatal (misconfiguration, closed device, or out-of-bounds
// access that no retry can fix). ErrTimeout itself is fatal: it means a
// retry budget was already spent. ErrQPBusy (mux lease exhaustion) is
// transient too, but retryAsync handles it on its own backoff curve — slot
// contention is expected at scale and must not burn the fault budget.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, ErrTimeout) {
		return false
	}
	return errors.Is(err, ErrUnreachable) ||
		errors.Is(err, ErrInjected) ||
		errors.Is(err, ErrBusy) ||
		errors.Is(err, ErrQPBusy) ||
		errors.Is(err, ErrRPCTimeout)
}

// Defaults for TransferOpts zero values.
const (
	DefaultDeadline     = 10 * time.Second
	DefaultMaxRetries   = 64
	DefaultBackoff      = 50 * time.Microsecond
	DefaultMaxBackoff   = 10 * time.Millisecond
	DefaultPollInterval = 5 * time.Microsecond
)

// TransferOpts bounds a blocking transfer operation: a total deadline, a
// retry budget for transient failures, and the backoff curve between
// attempts. The zero value selects the defaults above.
type TransferOpts struct {
	// Deadline is the total wall-clock budget for the operation, including
	// all retries and backoff waits.
	Deadline time.Duration
	// MaxRetries caps how many times a transient failure is retried.
	MaxRetries int
	// Backoff is the wait before the first retry; it doubles each retry.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// PollInterval is the sleep between flag polls once spinning stops.
	PollInterval time.Duration
	// OnRetry, if non-nil, is invoked with the transient error before each
	// retry (for counters).
	OnRetry func(err error)
	// Stripes splits large payloads across up to this many channels of the
	// per-peer QP group (clamped to [1, MaxStripes]); 0 or 1 keeps the
	// single-lane protocol. Striping only takes effect on senders/receivers
	// that registered extra lanes with AddLane.
	Stripes int
	// CoalesceThreshold batches transfers smaller than this many bytes to
	// the same peer into one coalesced slot (see CoalescedSender); 0
	// disables coalescing. The rdma layer only carries the knob — grouping
	// happens in the distributed edge setup.
	CoalesceThreshold int
	// OnStripe, if non-nil, observes every issued stripe as (lane index,
	// bytes on the wire) — the per-lane byte accounting hook.
	OnStripe func(lane, bytes int)
	// OnDoorbell, if non-nil, observes each doorbell-batched post as (lane
	// index, chunks in the flush): a lane's stripe chunks entering the send
	// queue together instead of one post per chunk.
	OnDoorbell func(lane, chunks int)
	// OnComplete, if non-nil, observes each successful bounded transfer
	// (SendRetry / FetchRetry / FlushRetry and their async forms) as (payload
	// bytes, wall duration including retries and backoff). The distributed layer feeds per-edge
	// transfer-latency histograms from it.
	OnComplete func(bytes int, d time.Duration)
	// OnRetransmit, if non-nil, observes each NACK the lossy protocol serves
	// with the number of chunks selectively re-sent (see LossySender). It
	// never fires for whole-transfer retries — those go through OnRetry.
	OnRetransmit func(chunks int)
	// Canceled, if non-nil, is polled between retry attempts and backoff
	// waits; once it returns true the operation fails fast with ErrCanceled
	// instead of retrying. Executors wire it to their iteration's abort
	// flag so a transfer outliving a failed step cannot keep re-sending —
	// a retry that lands after the fabric heals would write into memory a
	// later iteration already owns.
	Canceled func() bool
}

// observeComplete fires opts.OnComplete on a successful transfer.
func observeComplete(o TransferOpts, bytes int, start time.Time, err error) error {
	if err == nil && o.OnComplete != nil {
		o.OnComplete(bytes, time.Since(start))
	}
	return err
}

func (o TransferOpts) withDefaults() TransferOpts {
	if o.Deadline <= 0 {
		o.Deadline = DefaultDeadline
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.PollInterval <= 0 {
		o.PollInterval = DefaultPollInterval
	}
	if o.Stripes <= 0 {
		o.Stripes = 1
	}
	if o.Stripes > MaxStripes {
		o.Stripes = MaxStripes
	}
	return o
}

// retryAsync runs attempt until it succeeds, fails fatally, is canceled,
// or the deadline or retry budget is exhausted (typed ErrTimeout wrapping
// the last error), then calls fin exactly once with the outcome. attempt
// posts its work and reports through cb; the retry decision runs in that
// completion (on a CQ poller) and backoff waits ride a timer, so nothing
// waits on the wire. Cancellation is checked before every attempt —
// including the first — so an already-aborted caller never posts a write
// at all. Only an attempt's first completion counts. what labels errors.
func retryAsync(opts TransferOpts, what func() string, attempt func(cb func(error)), fin func(error)) {
	o := opts.withDefaults()
	deadline := time.Now().Add(o.Deadline)
	backoff, busyBackoff := o.Backoff, o.Backoff
	tries := 0
	var next func()
	settle := func(err error) {
		if err == nil || !Retryable(err) {
			fin(err)
			return
		}
		wait := &backoff
		if errors.Is(err, ErrQPBusy) {
			// Mux-slot contention: every QP slot is pinned by another live
			// attempt. That is scheduling pressure, not a fabric fault, so
			// it waits on its own backoff curve bounded by the deadline
			// alone — at 64 tasks a stretch of busy slots must not eat the
			// MaxRetries budget a real drop needs later.
			if !time.Now().Add(busyBackoff).Before(deadline) {
				fin(fmt.Errorf("rdma: %s: qp slots busy past deadline: %w (last: %w)",
					what(), ErrTimeout, err))
				return
			}
			wait = &busyBackoff
		} else if tries >= o.MaxRetries || !time.Now().Add(backoff).Before(deadline) {
			fin(fmt.Errorf("rdma: %s: gave up after %d attempts: %w (last: %w)",
				what(), tries+1, ErrTimeout, err))
			return
		} else if tries++; o.Canceled != nil && o.Canceled() {
			fin(fmt.Errorf("rdma: %s: %w after %d attempts (last: %w)", what(), ErrCanceled, tries, err))
			return
		}
		if o.OnRetry != nil {
			o.OnRetry(err)
		}
		d := *wait
		*wait = min(2*d, o.MaxBackoff)
		time.AfterFunc(d, next)
	}
	next = func() {
		if o.Canceled != nil && o.Canceled() {
			fin(fmt.Errorf("rdma: %s: %w after %d attempts", what(), ErrCanceled, tries))
			return
		}
		attempt(firstOnly(func() {}, settle))
	}
	next()
}

// firstOnly returns a completion callback passing only the first completion
// on, after release: a duplicated completion must neither release a lane
// lease twice nor settle an attempt twice.
func firstOnly(release func(), cb func(error)) func(error) {
	var fired atomic.Bool
	return func(err error) {
		if fired.CompareAndSwap(false, true) {
			release()
			cb(err)
		}
	}
}

// await runs an async operation and blocks until its fin fired: every
// blocking transfer form is this wait on its async form.
func await(op func(fin func(error))) error {
	done := make(chan error, 1)
	op(func(err error) { done <- err })
	return <-done
}

// retryLoop is retryAsync for a blocking attempt.
func retryLoop(opts TransferOpts, what func() string, attempt func() error) error {
	return await(func(fin func(error)) {
		retryAsync(opts, what, func(cb func(error)) { cb(attempt()) }, fin)
	})
}

// waitCond polls cond until it reports true, the caller cancels, or the
// deadline expires. It spins briefly, then backs off to PollInterval sleeps
// so a long wait does not burn a core.
func waitCond(opts TransferOpts, what func() string, cond func() bool) error {
	o := opts.withDefaults()
	deadline := time.Now().Add(o.Deadline)
	for spins := 0; !cond(); spins++ {
		if spins > 256 {
			if o.Canceled != nil && o.Canceled() {
				return fmt.Errorf("rdma: %s: %w", what(), ErrCanceled)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("rdma: %s: no progress after %v: %w", what(), o.Deadline, ErrTimeout)
			}
			sleep(o.PollInterval)
		} else {
			runtime.Gosched()
		}
	}
	return nil
}

// MemcpyRetry is a blocking Memcpy with bounded retry: transient failures
// (drops, transient unreachability) are retried with exponential backoff
// until the opts deadline. Safe only for idempotent transfers — both the
// protocols in this package re-send identical bytes.
func (c *Channel) MemcpyRetry(localOff int, local *MemRegion, remoteOff int, remote RemoteRegion,
	size int, dir Op, opts TransferOpts) error {
	return retryLoop(opts, func() string { return fmt.Sprintf("%s %dB to %s", dir, size, c.remote) },
		func() error { return c.MemcpySync(localOff, local, remoteOff, remote, size, dir) })
}

// CallRetry is Call with bounded retry: RPC timeouts and transient send
// failures are retried until the opts deadline. The per-attempt timeout is
// derived from the deadline and the retry budget. Handlers must be
// idempotent (address distribution is).
func (c *Channel) CallRetry(method string, req []byte, opts TransferOpts) ([]byte, error) {
	o := opts.withDefaults()
	perCall := o.Deadline / 4
	if perCall <= 0 {
		perCall = o.Deadline
	}
	var resp []byte
	err := retryLoop(o, func() string { return fmt.Sprintf("rpc %q to %s", method, c.remote) },
		func() error {
			var err error
			resp, err = c.Call(method, req, perCall)
			return err
		})
	return resp, err
}

// --- Static placement ---

// SendRetry transfers the staging buffer like Send, but blocks until the
// write completed, retrying transient failures within the opts budget; with
// opts.Stripes > 1 and registered lanes the payload goes out striped (see
// SendStriped). The retry is safe either way: a failed attempt never made
// the flag visible (single-lane faults strike before memory writes; a
// striped attempt only writes the flag after every stripe completed), and a
// re-send writes the same bytes.
func (s *StaticSender) SendRetry(opts TransferOpts) error { return s.SendRetryFrom(nil, opts) }

// SendRetryFrom is SendRetry for a payload that lives outside registered
// memory: instead of staging all the bytes up front (SendFrom) and only then
// posting the first write, each attempt copies the payload into staging lane
// by lane, flushing every lane's chunks as soon as they are staged — so lane
// L's writes fly while lane L+1's bytes are still being copied (sender-side
// copy/transmit pipelining). A retry re-copies the same bytes, which is
// safe: the completion callback fires only after every chunk of the attempt
// completed, so no attempt's copy can overlap its own in-flight writes, and
// a failed attempt never made the flag visible.
func (s *StaticSender) SendRetryFrom(payload []byte, opts TransferOpts) error {
	return await(func(fin func(error)) { s.SendRetryFromAsync(payload, opts, fin) })
}

// SendRetryFromAsync is SendRetryFrom without the wait: fin fires exactly
// once, from a completion or backoff timer, with the outcome. A nil payload
// sends the staging buffer as it is (SendRetry, the zero-copy path).
func (s *StaticSender) SendRetryFromAsync(payload []byte, opts TransferOpts, fin func(error)) {
	s.sendRetryFrom(payload, opts, nil, fin)
}

// sendRetryFrom is the attempt/lease/retry wrapper of every static send;
// with ls set, each attempt is one epoch of the lossy protocol instead of a
// flagged striped write.
func (s *StaticSender) sendRetryFrom(payload []byte, opts TransferOpts, ls *LossySender, fin func(error)) {
	if payload != nil && len(payload) != s.desc.PayloadSize {
		fin(fmt.Errorf("rdma: payload %d bytes, slot holds %d: %w",
			len(payload), s.desc.PayloadSize, ErrBounds))
		return
	}
	o := opts.withDefaults()
	start := time.Now()
	what := "static send"
	if ls != nil {
		what = "lossy send"
		ls.sends.Add(1)
	}
	label := func() string { return fmt.Sprintf("%s %dB to %s", what, s.desc.PayloadSize, s.ch.Remote()) }
	retryAsync(o, label, func(cb func(error)) {
		// Lanes are acquired per attempt: with a LaneSource (mux mode) the
		// slot is pinned only while this attempt's writes are in flight and
		// released once its completions drained, so an idle or backing-off
		// edge holds no QP slot.
		lanes, release, err := s.acquireLanes()
		if err != nil {
			cb(err)
			return
		}
		if ls != nil {
			// A lossy epoch serves NACKs until its completion ack, so it
			// alone runs on a goroutine of its own.
			go func() {
				err := ls.attempt(lanes, payload, o)
				release()
				cb(err)
			}()
			return
		}
		done := firstOnly(release, cb)
		if err := s.sendStripedOn(lanes, payload, o.Stripes, o.OnStripe, o.OnDoorbell, nil, done); err != nil {
			done(err)
		}
	}, func(err error) { fin(observeComplete(o, s.desc.PayloadSize, start, err)) })
}

// Wait blocks until a complete tensor has arrived (Poll returns true) or
// the opts deadline expires. A receiver cannot distinguish a slow sender
// from a partitioned one, so the failure is a typed ErrTimeout; callers
// with fabric knowledge may refine it.
func (r *StaticReceiver) Wait(opts TransferOpts) error {
	return waitCond(opts, func() string { return "static recv flag" }, r.Poll)
}

// --- Ack-gated slot ---

// sendRetry is the gate's send retrying ErrBusy (ack still in flight) and
// transient fabric faults within the opts budget, over one lane per attempt
// (leased when a LaneSource is set); fin fires once the write completed or
// failed for good. A failed write never touched the receiver (faults strike
// before memory writes), so no ack will ever arrive for it: the attempt
// re-arms the ack word the gate cleared, or every later attempt would see
// ErrBusy.
func (a *ackSlot) sendRetry(what func() string, bytes int, stage []byte, from int, opts TransferOpts,
	fin func(error)) {
	start := time.Now()
	retryAsync(opts, what, func(cb func(error)) {
		ch, release, err := laneFor(a.s.source, a.s.ch.Remote(), a.s.ch)
		if err != nil {
			cb(err)
			return
		}
		err = a.send(ch, stage, from, firstOnly(release, func(err error) {
			if err != nil {
				a.s.mr.SetFlagLocal(a.ack)
			}
			cb(err)
		}))
		if err != nil { // nothing posted
			release()
			cb(err)
		}
	}, func(err error) { fin(observeComplete(opts, bytes, start, err)) })
}

// AckRetryAsync posts the reuse ack into the sender's ack word, retrying
// transient faults within the opts budget, and fires fin once it landed or
// failed for good; with src set each attempt leases its lane. The ack is a
// constant one-word write, so re-posting it is idempotent.
func (r *StaticReceiver) AckRetryAsync(src LaneSource, ch *Channel, ack DynSlotDesc, opts TransferOpts,
	fin func(error)) {
	retryAsync(opts, func() string { return "reuse ack" }, func(cb func(error)) {
		lane, release, err := laneFor(src, ch.Remote(), ch)
		if err != nil {
			cb(err)
			return
		}
		r.postAck(lane, ack, firstOnly(release, cb))
	}, fin)
}

// --- Dynamic allocation ---

// SendRetry stages and sends the metadata like Send, but blocks until the
// write completed, treating both ErrBusy (previous transfer not yet acked)
// and transient transfer failures as retryable within the opts budget.
func (s *DynSender) SendRetry(payloadMR *MemRegion, payloadOff, payloadSize int,
	dtype uint32, dims []uint64, opts TransferOpts) error {
	return await(func(fin func(error)) {
		s.SendRetryAsync(payloadMR, payloadOff, payloadSize, dtype, dims, opts, fin)
	})
}

// SendRetryAsync is SendRetry without the wait: fin fires exactly once,
// from a completion or backoff timer, with the outcome.
func (s *DynSender) SendRetryAsync(payloadMR *MemRegion, payloadOff, payloadSize int,
	dtype uint32, dims []uint64, opts TransferOpts, fin func(error)) {
	img := make([]byte, dynMetaFlagOff)
	if err := encodeDynMeta(img, payloadMR, payloadOff, payloadSize, dtype, dims); err != nil {
		fin(err)
		return
	}
	s.sendRetry(func() string { return fmt.Sprintf("dyn send %dB to %s", payloadSize, s.s.ch.Remote()) },
		payloadSize, img, 0, opts, fin)
}

// WaitMeta blocks until the metadata flag is set and returns the decoded
// metadata, or fails with a typed ErrTimeout at the opts deadline.
func (r *DynReceiver) WaitMeta(opts TransferOpts) (DynMeta, error) {
	var meta DynMeta
	err := waitCond(opts, func() string { return "dyn metadata flag" }, func() bool {
		m, ok := r.Poll()
		if ok {
			meta = m
		}
		return ok
	})
	return meta, err
}

// FetchRetry is FetchRetryAsync blocking until the reuse ack landed.
func (r *DynReceiver) FetchRetry(meta DynMeta, senderScratch DynSlotDesc,
	dst *MemRegion, dstOff int, opts TransferOpts) error {
	return await(func(fin func(error)) { r.FetchRetryAsync(meta, senderScratch, dst, dstOff, opts, fin) })
}

// FetchRetryAsync clears the metadata flag, pulls the payload into
// dst[dstOff:dstOff+meta.PayloadSize) with one-sided reads, and then posts
// the reuse ack into the sender's scratch block; fin fires exactly once,
// from a completion or backoff timer, after the ack landed or with the
// first fatal error. The read and the ack are each retried within the opts
// budget. With opts.Stripes > 1 and registered lanes, the payload read is
// split into chunks pulled concurrently over distinct channels, all in one
// join: a failed chunk retries the read group as a whole, and the ack — the
// dyn protocol's analogue of the tail flag — is only posted after every
// stripe's read completed, so the sender can never observe "reusable"
// while part of the payload is still in flight. All pieces are idempotent:
// re-reading pulls the same payload (the sender cannot reuse the source
// buffer before the ack), and the ack is a constant one-word write.
func (r *DynReceiver) FetchRetryAsync(meta DynMeta, senderScratch DynSlotDesc,
	dst *MemRegion, dstOff int, opts TransferOpts, fin func(error)) {
	o := opts.withDefaults()
	start := time.Now()
	r.slot.Consume()
	size := int(meta.PayloadSize)
	// With a LaneSource the lease spans the whole fetch (reads + ack):
	// re-leasing between attempts of one tensor would only churn the pool.
	lanes, release := r.lanes, func() {}
	if r.source != nil {
		var err error
		if lanes, release, err = r.source.AcquireLanes(r.sender); err != nil {
			fin(fmt.Errorf("rdma: dyn fetch lanes: %w", err))
			return
		}
	}
	chunks, kind := StripeDesc{PayloadSize: meta.PayloadSize, Stripes: uint32(o.Stripes)}.Chunks(), "striped read"
	if len(chunks) <= 1 || len(lanes) <= 1 {
		chunks, kind = []StripeChunk{{Size: size}}, "read"
	}
	for i, chk := range chunks {
		if o.OnStripe != nil && chk.Size > 0 {
			o.OnStripe(i%len(lanes), chk.Size)
		}
	}
	done := func(err error) {
		release()
		fin(err)
	}
	label := func() string { return fmt.Sprintf("%s %dB to %s", OpRead, size, r.sender) }
	retryAsync(o, label, func(cb func(error)) {
		join := newStripeJoin(len(chunks), cb)
		for i, chk := range chunks {
			ccb := join.chunkCB(i)
			if err := lanes[i%len(lanes)].Memcpy(dstOff+chk.Off, dst, int(meta.SrcOff)+chk.Off,
				meta.Src, chk.Size, OpRead, ccb); err != nil {
				ccb(err)
			}
		}
	}, func(err error) {
		if err != nil {
			done(fmt.Errorf("rdma: dyn fetch %s: %w", kind, err))
			return
		}
		r.slot.AckRetryAsync(nil, lanes[0], dynAck(senderScratch), o, func(err error) {
			if err != nil {
				err = fmt.Errorf("rdma: dyn fetch ack: %w", err)
			}
			done(observeComplete(o, size, start, err))
		})
	})
}
