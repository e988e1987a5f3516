package rdma

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the callback-driven retry engine (retryAsync) and the async
// transfer forms built on it: transfers progress on the QP and CQ
// goroutines, so nothing parks a goroutine per transfer or per stripe.

// wireGate holds every one-sided transfer inside the TransferDelay hook
// while shut, keeping posted work in flight for as long as a test needs.
type wireGate struct {
	mu   sync.Mutex
	open chan struct{}
}

func (g *wireGate) shut() {
	g.mu.Lock()
	g.open = make(chan struct{})
	g.mu.Unlock()
}

func (g *wireGate) release() {
	g.mu.Lock()
	close(g.open)
	g.mu.Unlock()
}

func (g *wireGate) delay(Op, int) time.Duration {
	g.mu.Lock()
	ch := g.open
	g.mu.Unlock()
	<-ch
	return 0
}

// finCounter counts the fin calls of a batch of async transfers.
type finCounter struct {
	calls []atomic.Int32
	errs  chan error
}

func newFinCounter(n int) *finCounter {
	return &finCounter{calls: make([]atomic.Int32, n), errs: make(chan error, 2*n)}
}

func (c *finCounter) fin(i int) func(error) {
	return func(err error) {
		c.calls[i].Add(1)
		c.errs <- err
	}
}

// wait collects n outcomes and fails the test on any error.
func (c *finCounter) wait(t *testing.T, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case err := <-c.errs:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: %d of %d transfers never finished", what, n-i, n)
		}
	}
}

// peakGoroutines samples runtime.NumGoroutine for a short while and returns
// the largest count seen.
func peakGoroutines() int {
	peak := 0
	for i := 0; i < 10; i++ {
		peak = max(peak, runtime.NumGoroutine())
		time.Sleep(2 * time.Millisecond)
	}
	return peak
}

// TestAsyncTransfersHoldNoGoroutine holds 64 dynamic transfers (first their
// metadata sends, then their 4-way striped fetches) plus a 1 MiB striped
// static send in flight behind a shut wire, and checks the goroutine count
// stays flat: the transfers wait on the QP and CQ goroutines, not on one
// goroutine per transfer or per stripe.
func TestAsyncTransfersHoldNoGoroutine(t *testing.T) {
	const (
		edges   = 64
		dynSize = 1024
		lanes   = 4
		big     = 1 << 20
		slack   = 16
	)
	f, a, b := newStripedPair(t)
	chAB := lanesTo(t, a, "hostB:1", lanes)
	chBA := lanesTo(t, b, "hostA:1", lanes)

	metaMR, _ := b.AllocateMemRegion(edges * DynMetaSize)
	scratchMR, _ := a.AllocateMemRegion(edges * DynMetaSize)
	srcMR, _ := a.AllocateMemRegion(edges * dynSize)
	dstMR, _ := b.AllocateMemRegion(edges * dynSize)
	fillStripePattern(srcMR.Bytes(), 0x3C)
	recvs := make([]*DynReceiver, edges)
	sends := make([]*DynSender, edges)
	for i := range recvs {
		var err error
		if recvs[i], err = NewDynReceiver(chBA[0], metaMR, i*DynMetaSize); err != nil {
			t.Fatal(err)
		}
		for _, ch := range chBA[1:] {
			if err := recvs[i].AddLane(ch); err != nil {
				t.Fatal(err)
			}
		}
		if sends[i], err = NewDynSender(chAB[0], scratchMR, i*DynMetaSize, recvs[i].Desc()); err != nil {
			t.Fatal(err)
		}
	}
	bigRecvMR, _ := b.AllocateMemRegion(StaticSlotSize(big))
	bigRecv, err := NewStaticReceiver(bigRecvMR, 0, big)
	if err != nil {
		t.Fatal(err)
	}
	bigStageMR, _ := a.AllocateMemRegion(StaticSlotSize(big))
	bigSend, err := NewStaticSender(chAB[0], bigStageMR, 0, bigRecv.Desc())
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chAB[1:] {
		if err := bigSend.AddLane(ch); err != nil {
			t.Fatal(err)
		}
	}
	fillStripePattern(bigSend.Buffer(), 0x5A)

	var gate wireGate
	gate.shut()
	f.SetHooks(Hooks{TransferDelay: gate.delay})
	opts := TransferOpts{Stripes: lanes}
	idle := runtime.NumGoroutine()

	// Phase 1: 64 metadata sends and the striped static send.
	sent := newFinCounter(edges + 1)
	for i, s := range sends {
		s.SendRetryAsync(srcMR, i*dynSize, dynSize, 1, []uint64{dynSize}, opts, sent.fin(i))
	}
	bigSend.SendRetryFromAsync(nil, opts, sent.fin(edges))
	grew := peakGoroutines() - idle
	t.Logf("sends in flight: goroutines %d over idle %d", grew, idle)
	if grew >= slack {
		t.Errorf("sends in flight: goroutines grew by %d over idle %d, want < %d", grew, idle, slack)
	}
	gate.release()
	sent.wait(t, edges+1, "send")
	if !bigRecv.Poll() || !bytes.Equal(bigRecv.Payload(), bigSend.Buffer()) {
		t.Fatal("striped static send did not land bit-identical")
	}

	// Phase 2: 64 striped fetches (4 chunk reads each) and their acks.
	gate.shut()
	fetched := newFinCounter(edges)
	for i, r := range recvs {
		meta, ok := r.Poll()
		if !ok {
			t.Fatalf("edge %d: metadata flag not set", i)
		}
		r.FetchRetryAsync(meta, sends[i].ScratchDesc(), dstMR, i*dynSize, opts, fetched.fin(i))
	}
	grew = peakGoroutines() - idle
	t.Logf("fetches in flight: goroutines %d over idle %d", grew, idle)
	if grew >= slack {
		t.Errorf("fetches in flight: goroutines grew by %d over idle %d, want < %d", grew, idle, slack)
	}
	gate.release()
	fetched.wait(t, edges, "fetch")
	if !bytes.Equal(dstMR.Bytes(), srcMR.Bytes()) {
		t.Fatal("fetched payloads diverged from their sources")
	}
	for i, s := range sends {
		if !s.PollReusable() {
			t.Fatalf("edge %d: reuse ack missing after its fetch finished", i)
		}
	}
}

// countingSource wraps a LaneSource and counts acquires and releases, so a
// release run twice (or never) shows.
type countingSource struct {
	inner              LaneSource
	acquired, released atomic.Int64
}

func (c *countingSource) AcquireLanes(peer string) ([]*Channel, func(), error) {
	lanes, release, err := c.inner.AcquireLanes(peer)
	if err != nil {
		return nil, nil, err
	}
	c.acquired.Add(1)
	return lanes, func() { c.released.Add(1); release() }, nil
}

// TestAsyncRetryDuplicateCompletionsFinOnce completes every work request
// twice under QPMux lane sources: each async transfer's fin must still fire
// exactly once, and every lease must be released exactly once.
func TestAsyncRetryDuplicateCompletionsFinOnce(t *testing.T) {
	const (
		rounds = 8
		size   = 4096
		lanes  = 4
	)
	f, a, b := newStripedPair(t)
	muxA, err := NewQPMux(a, 2, lanes)
	if err != nil {
		t.Fatal(err)
	}
	muxB, err := NewQPMux(b, 2, lanes)
	if err != nil {
		t.Fatal(err)
	}
	srcA := &countingSource{inner: muxA}
	srcB := &countingSource{inner: muxB}
	chAB := chanTo(t, a, "hostB:1")
	chBA := chanTo(t, b, "hostA:1")

	slotMR, _ := b.AllocateMemRegion(StaticSlotSize(size))
	slot, err := NewStaticReceiver(slotMR, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	stageMR, _ := a.AllocateMemRegion(StaticSlotSize(size))
	static, err := NewStaticSender(chAB, stageMR, 0, slot.Desc())
	if err != nil {
		t.Fatal(err)
	}
	static.SetLaneSource(srcA)
	metaMR, _ := b.AllocateMemRegion(DynMetaSize)
	recv, err := NewDynReceiver(chBA, metaMR, 0)
	if err != nil {
		t.Fatal(err)
	}
	recv.SetLaneSource(srcB)
	scratchMR, _ := a.AllocateMemRegion(DynMetaSize)
	dyn, err := NewDynSender(chAB, scratchMR, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}
	dyn.SetLaneSource(srcA)
	srcMR, _ := a.AllocateMemRegion(size)
	dstMR, _ := b.AllocateMemRegion(size)

	var dups atomic.Int64
	f.SetHooks(Hooks{CompletionFault: func(Op, int) CompletionFault {
		dups.Add(1)
		return CompletionFault{Duplicate: true}
	}})
	payload := make([]byte, size)
	c := newFinCounter(3 * rounds)
	for r := 0; r < rounds; r++ {
		opts := TransferOpts{Stripes: 1 + r%lanes}
		fillStripePattern(payload, byte(r))
		static.SendRetryFromAsync(payload, opts, c.fin(3*r))
		c.wait(t, 1, "static send")
		if !slot.Poll() || !bytes.Equal(slot.Payload(), payload) {
			t.Fatalf("round %d: static slot diverged", r)
		}
		slot.Consume()

		fillStripePattern(srcMR.Bytes(), byte(r)^0xFF)
		dyn.SendRetryAsync(srcMR, 0, size, 1, []uint64{size}, opts, c.fin(3*r+1))
		c.wait(t, 1, "dyn send")
		meta, err := recv.WaitMeta(opts)
		if err != nil {
			t.Fatal(err)
		}
		recv.FetchRetryAsync(meta, dyn.ScratchDesc(), dstMR, 0, opts, c.fin(3*r+2))
		c.wait(t, 1, "fetch")
		if !bytes.Equal(dstMR.Bytes(), srcMR.Bytes()) {
			t.Fatalf("round %d: fetched payload diverged", r)
		}
		waitFor(t, "reuse ack", dyn.PollReusable)
	}
	time.Sleep(20 * time.Millisecond) // let trailing duplicates land
	if dups.Load() == 0 {
		t.Fatal("no completion was duplicated")
	}
	for i := range c.calls {
		if n := c.calls[i].Load(); n != 1 {
			t.Errorf("transfer %d: fin fired %d times, want 1", i, n)
		}
	}
	for name, src := range map[string]*countingSource{"sender": srcA, "receiver": srcB} {
		if acq, rel := src.acquired.Load(), src.released.Load(); acq == 0 || acq != rel {
			t.Errorf("%s: %d leases acquired, %d released", name, acq, rel)
		}
	}
	if n := muxA.Stats().ActiveLeases + muxB.Stats().ActiveLeases; n != 0 {
		t.Errorf("%d leases still active after every fin", n)
	}
}

// TestAsyncFetchRetriesFailedStripe fails one chunk read of a striped fetch
// with ErrInjected: the read group is retried as one attempt, the
// destination ends bit-identical to the source, and exactly one reuse ack
// lands, after the last read.
func TestAsyncFetchRetriesFailedStripe(t *testing.T) {
	const (
		size  = 64 << 10
		lanes = 4
	)
	f, a, b := newStripedPair(t)
	chAB := chanTo(t, a, "hostB:1")
	laneChans := lanesTo(t, b, "hostA:1", lanes)
	metaMR, _ := b.AllocateMemRegion(DynMetaSize)
	recv, err := NewDynReceiver(laneChans[0], metaMR, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range laneChans[1:] {
		if err := recv.AddLane(ch); err != nil {
			t.Fatal(err)
		}
	}
	scratchMR, _ := a.AllocateMemRegion(DynMetaSize)
	send, err := NewDynSender(chAB, scratchMR, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}
	srcMR, _ := a.AllocateMemRegion(size)
	dstMR, _ := b.AllocateMemRegion(size)
	fillStripePattern(srcMR.Bytes(), 0x77)
	opts := TransferOpts{Stripes: lanes}
	if err := send.SendRetry(srcMR, 0, size, 1, []uint64{size}, opts); err != nil {
		t.Fatal(err)
	}
	meta, err := recv.WaitMeta(opts)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		events []Op // completed transfers, in order
		failed atomic.Bool
	)
	f.SetHooks(Hooks{
		TransferFault: func(op Op, _ int) error {
			if op == OpRead && failed.CompareAndSwap(false, true) {
				return ErrInjected
			}
			return nil
		},
		OnTransfer: func(op Op, _ int) {
			mu.Lock()
			events = append(events, op)
			mu.Unlock()
		},
	})
	var retries atomic.Int32
	opts.OnRetry = func(error) { retries.Add(1) }
	c := newFinCounter(1)
	recv.FetchRetryAsync(meta, send.ScratchDesc(), dstMR, 0, opts, c.fin(0))
	c.wait(t, 1, "fetch")
	if !bytes.Equal(dstMR.Bytes(), srcMR.Bytes()) {
		t.Fatal("destination diverged from source")
	}
	if retries.Load() != 1 {
		t.Errorf("retries = %d, want 1", retries.Load())
	}
	waitFor(t, "reuse ack", send.PollReusable)
	mu.Lock()
	defer mu.Unlock()
	lastRead, acks := -1, 0
	for i, op := range events {
		if op == OpRead {
			lastRead = i
		} else {
			acks++
		}
	}
	// 3 reads of the failed attempt completed, then all 4 of the retry.
	if reads := len(events) - acks; reads != 2*lanes-1 {
		t.Errorf("%d reads completed, want %d", reads, 2*lanes-1)
	}
	if acks != 1 || events[len(events)-1] != OpWrite || lastRead != len(events)-2 {
		t.Errorf("transfer order %v: want exactly one ack, after the last read", events)
	}
}

// TestAsyncCanceledDuringBackoffPostsNothing cancels a failing send once it
// decided to retry (OnRetry fires just before the backoff wait): the
// timer's next attempt must see the cancel, post nothing, and end the
// transfer with ErrCanceled after the backoff.
func TestAsyncCanceledDuringBackoffPostsNothing(t *testing.T) {
	f, a, b := newPair(t)
	slotMR, _ := b.AllocateMemRegion(StaticSlotSize(64))
	slot, err := NewStaticReceiver(slotMR, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	stageMR, _ := a.AllocateMemRegion(StaticSlotSize(64))
	send, err := NewStaticSender(chanTo(t, a, "hostB:1"), stageMR, 0, slot.Desc())
	if err != nil {
		t.Fatal(err)
	}
	var posted atomic.Int32
	f.SetHooks(Hooks{TransferFault: func(Op, int) error {
		posted.Add(1)
		return ErrInjected
	}})
	var canceled atomic.Bool
	const backoff = 50 * time.Millisecond
	opts := TransferOpts{
		Backoff:  backoff,
		Canceled: canceled.Load,
		OnRetry:  func(error) { canceled.Store(true) },
	}
	c := newFinCounter(1)
	start := time.Now()
	send.SendRetryFromAsync(nil, opts, c.fin(0))
	select {
	case err := <-c.errs:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled send ended with %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled send never finished")
	}
	if waited := time.Since(start); waited < backoff {
		t.Errorf("cancel observed after %v, before the %v backoff ended", waited, backoff)
	}
	time.Sleep(2 * backoff) // a stray attempt would post by now
	if n := posted.Load(); n != 1 {
		t.Errorf("%d writes posted, want only the attempt before the cancel", n)
	}
	if slot.Poll() {
		t.Error("canceled send set the receiver's flag")
	}
	if n := c.calls[0].Load(); n != 1 {
		t.Errorf("fin fired %d times, want 1", n)
	}
}
