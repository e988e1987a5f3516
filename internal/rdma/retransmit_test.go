package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

const testTensorID = 0xBEEF

// lossyPair wires one LossySender/LossyReceiver edge across a two-device
// fabric, with the sender's NACK scratch already installed on the receiver.
func newLossyPair(t *testing.T, payload, lanes int) (*Fabric, *LossySender, *LossyReceiver) {
	t.Helper()
	f := NewFabric()
	a, err := CreateDevice(f, Config{Endpoint: "sndr:1", QPsPerPeer: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CreateDevice(f, Config{Endpoint: "rcvr:1", QPsPerPeer: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	rmr, err := b.AllocateMemRegion(LossySlotSize(payload))
	if err != nil {
		t.Fatal(err)
	}
	rch, err := b.GetChannel("sndr:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewLossyReceiver(rch, rmr, 0, payload, testTensorID, LossyReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	smr, err := a.AllocateMemRegion(StaticSlotSize(payload))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := a.GetChannel("rcvr:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewStaticSender(ch, smr, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}
	for lane := 1; lane < lanes; lane++ {
		lch, err := a.GetChannel("rcvr:1", lane)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.AddLane(lch); err != nil {
			t.Fatal(err)
		}
	}
	send, err := NewLossySender(ss, testTensorID)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close(); recv.Close() })
	recv.SetSenderScratch(send.NackScratch())
	return f, send, recv
}

// deliver runs one send while polling the receiver, returning the received
// payload copy and the sender's error.
func deliver(t *testing.T, send *LossySender, recv *LossyReceiver, payload []byte, opts TransferOpts) ([]byte, error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- send.SendRetryFrom(payload, opts) }()
	deadline := time.Now().Add(opts.Deadline + 2*time.Second)
	for !recv.Poll() {
		if time.Now().After(deadline) {
			return nil, <-errc
		}
		time.Sleep(20 * time.Microsecond)
	}
	got := append([]byte(nil), recv.Payload()...)
	recv.Consume()
	// Keep pumping the completion ack until the sender unblocks.
	for {
		select {
		case err := <-errc:
			return got, err
		default:
			recv.Poll()
			time.Sleep(20 * time.Microsecond)
		}
	}
}

func TestLossyRoundTripNoLoss(t *testing.T) {
	const payload = 1 << 12
	_, send, recv := newLossyPair(t, payload, 4)
	opts := TransferOpts{Deadline: 5 * time.Second, Stripes: 4}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 5; round++ {
		want := make([]byte, payload)
		rng.Read(want)
		got, err := deliver(t, send, recv, want, opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: payload mismatch", round)
		}
	}
	if send.Retransmits() != 0 || send.FullResends() != 0 {
		t.Errorf("lossless run retransmitted: retransmits=%d fullResends=%d",
			send.Retransmits(), send.FullResends())
	}
}

// TestLossySelectiveRetransmit drops specific chunks' first transmission and
// asserts recovery re-sends exactly those chunks, exactly once: a dropped
// chunk goes out twice, every delivered chunk once, and the tensor is never
// re-announced (no go-back-N).
func TestLossySelectiveRetransmit(t *testing.T) {
	const payload = 1 << 13
	const stripes = 8
	f, send, recv := newLossyPair(t, payload, 4)

	dropped := map[uint32]bool{1: true, 3: true, 6: true}
	var mu sync.Mutex
	sent := map[uint32]int{} // per-chunk transmission count
	f.SetHooks(Hooks{
		Lossy: true,
		ChunkDrop: func(tag ChunkTag, size int) bool {
			mu.Lock()
			defer mu.Unlock()
			sent[tag.Seq]++
			return dropped[tag.Seq] && sent[tag.Seq] == 1
		},
	})

	want := make([]byte, payload)
	rand.New(rand.NewSource(2)).Read(want)
	got, err := deliver(t, send, recv, want, TransferOpts{Deadline: 5 * time.Second, Stripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload mismatch after selective retransmit")
	}
	if send.Retransmits() != int64(len(dropped)) {
		t.Errorf("retransmits = %d, want exactly %d", send.Retransmits(), len(dropped))
	}
	if send.FullResends() != 0 {
		t.Errorf("fullResends = %d: recovery replayed the whole tensor", send.FullResends())
	}
	if send.Nacks() == 0 {
		t.Error("no NACK was served")
	}
	mu.Lock()
	defer mu.Unlock()
	for seq := uint32(0); seq < stripes; seq++ {
		want := 1
		if dropped[seq] {
			want = 2
		}
		if sent[seq] != want {
			t.Errorf("chunk %d transmitted %d times, want %d", seq, sent[seq], want)
		}
	}
}

// TestLossyRandomDropsBitIdentical delivers under seeded 1–20%% chunk loss
// and asserts the received bytes stay bit-identical and recovery is exact:
// one retransmit per dropped chunk, never a spurious one.
func TestLossyRandomDropsBitIdentical(t *testing.T) {
	const payload = 1 << 13
	for _, rate := range []float64{0.01, 0.05, 0.20} {
		rate := rate
		t.Run(fmt.Sprintf("drop=%g", rate), func(t *testing.T) {
			f, send, recv := newLossyPair(t, payload, 4)
			var mu sync.Mutex
			drops := 0
			drng := rand.New(rand.NewSource(int64(rate * 1000)))
			f.SetHooks(Hooks{
				Lossy: true,
				ChunkDrop: func(tag ChunkTag, size int) bool {
					mu.Lock()
					defer mu.Unlock()
					drop := drng.Float64() < rate
					if drop {
						drops++
					}
					return drop
				},
			})
			prng := rand.New(rand.NewSource(3))
			opts := TransferOpts{Deadline: 10 * time.Second, Stripes: 8}
			for round := 0; round < 4; round++ {
				want := make([]byte, payload)
				prng.Read(want)
				got, err := deliver(t, send, recv, want, opts)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: payload mismatch under %g%% loss", round, 100*rate)
				}
			}
			if send.FullResends() != 0 {
				t.Errorf("fullResends = %d under chunk loss; recovery must stay selective", send.FullResends())
			}
			mu.Lock()
			defer mu.Unlock()
			if send.Retransmits() != int64(drops) {
				t.Errorf("retransmits = %d, drops = %d; every retransmit must answer a drop",
					send.Retransmits(), drops)
			}
		})
	}
}

// TestLossyBlackholeFailsTyped drops every chunk of the tensor: the send
// must fail with ErrTimeout, bounded by the deadline — not hang, not replay
// the connection.
func TestLossyBlackholeFailsTyped(t *testing.T) {
	const payload = 1 << 10
	f, send, recv := newLossyPair(t, payload, 2)
	f.SetHooks(Hooks{
		Lossy: true,
		ChunkDrop: func(tag ChunkTag, size int) bool {
			return tag.TensorID == testTensorID
		},
	})
	stop := make(chan struct{})
	go func() {
		// Keep the receiver NACKing so the failure mode under test is "all
		// retransmits lost", not "nobody asked".
		for {
			select {
			case <-stop:
				return
			default:
				recv.Poll()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	defer close(stop)
	start := time.Now()
	err := send.SendRetryFrom(make([]byte, payload), TransferOpts{Deadline: 300 * time.Millisecond, Stripes: 2})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("blackholed send: err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("blackholed send took %v; failure must be bounded", elapsed)
	}
}

// TestLossyCancelMidLoss pins the PR-5 cancellation contract under loss:
// once Canceled reports true, the sender fails fast with ErrCanceled
// instead of retransmitting into memory the aborting iteration may reuse.
func TestLossyCancelMidLoss(t *testing.T) {
	const payload = 1 << 10
	f, send, recv := newLossyPair(t, payload, 2)
	canceled := make(chan struct{})
	f.SetHooks(Hooks{
		Lossy:     true,
		ChunkDrop: func(tag ChunkTag, size int) bool { return true },
	})
	go func() {
		for i := 0; i < 20; i++ {
			recv.Poll()
			time.Sleep(100 * time.Microsecond)
		}
		close(canceled)
	}()
	err := send.SendRetryFrom(make([]byte, payload), TransferOpts{
		Deadline: 10 * time.Second,
		Stripes:  2,
		Canceled: func() bool {
			select {
			case <-canceled:
				return true
			default:
				return false
			}
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled lossy send: err = %v, want ErrCanceled", err)
	}
}

// TestLossyStaleChunkDiscarded delivers two epochs, then replays an
// epoch-1 chunk on the wire (a straggling retransmit): the receiver's
// epoch guard must discard it whole — no byte lands, the arrival stamp
// stays at epoch 2, and the staleness is observable via OnChunkStale.
func TestLossyStaleChunkDiscarded(t *testing.T) {
	const payload = 1 << 10
	f, send, recv := newLossyPair(t, payload, 2)
	var mu sync.Mutex
	stale := 0
	f.SetHooks(Hooks{
		OnChunkStale: func(tag ChunkTag) {
			mu.Lock()
			stale++
			mu.Unlock()
		},
	})
	opts := TransferOpts{Deadline: 5 * time.Second, Stripes: 4}
	p1 := bytes.Repeat([]byte{0x11}, payload)
	p2 := bytes.Repeat([]byte{0x22}, payload)
	if _, err := deliver(t, send, recv, p1, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := deliver(t, send, recv, p2, opts); err != nil {
		t.Fatal(err)
	}
	// Straggler: replay epoch 1's chunk 0 with stale bytes in staging.
	for i := range send.Buffer() {
		send.Buffer()[i] = 0x99
	}
	err := send.sendStripedOn([]*Channel{send.ch}, nil, 4, nil, nil,
		&lossyRound{s: send, epoch: 1, mask: 1}, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := stale
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale chunk was never observed as discarded")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if !bytes.Equal(recv.Payload(), p2) {
		t.Fatal("stale epoch-1 chunk corrupted epoch-2 memory")
	}
	if got := recv.mr.LoadWord(recv.lay.arrival); got != 2 {
		t.Fatalf("arrival[0] = %d, want epoch 2", got)
	}
}

// TestPlaceChunkEpochGuard unit-tests the guard primitive: a chunk older
// than the guard is rejected without touching memory, atomically with
// respect to raising the guard, and a newer chunk raises it.
func TestPlaceChunkEpochGuard(t *testing.T) {
	f := NewFabric()
	d, err := CreateDevice(f, Config{Endpoint: "x:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const payload = 128
	mr, err := d.AllocateMemRegion(LossySlotSize(payload))
	if err != nil {
		t.Fatal(err)
	}
	lay := lossyLayout(0, payload)
	// Chunk sources are always registered-region memory (8-aligned); the
	// placement primitive reads them with atomic word loads.
	srcMR, err := d.AllocateMemRegion(128)
	if err != nil {
		t.Fatal(err)
	}
	src := srcMR.Bytes()[:64]
	for i := range src {
		src[i] = 0xAB
	}
	tag := &writeTag{kind: tagChunk, tag: ChunkTag{TensorID: 1, Seq: 0, Epoch: 1},
		guardOff: lay.guard, arrivalOff: lay.arrival}
	if err := mr.storeGuarded(lay.guard, 1); err != nil {
		t.Fatal(err)
	}
	placed, err := mr.placeChunk(tag, 0, src)
	if err != nil || !placed {
		t.Fatalf("current-epoch chunk: placed=%v err=%v", placed, err)
	}
	if err := mr.storeGuarded(lay.guard, 2); err != nil {
		t.Fatal(err)
	}
	stale := srcMR.Bytes()[64:128]
	for i := range stale {
		stale[i] = 0xCD
	}
	placed, err = mr.placeChunk(tag, 0, stale)
	if err != nil || placed {
		t.Fatalf("stale-epoch chunk: placed=%v err=%v", placed, err)
	}
	if mr.Bytes()[0] != 0xAB {
		t.Error("stale chunk mutated payload memory")
	}
	if got := mr.LoadWord(lay.arrival); got != 1 {
		t.Errorf("arrival stamp = %d, want untouched epoch 1", got)
	}
	// A newer epoch's chunk lands and raises the guard past the old one.
	newer := &writeTag{kind: tagChunk, tag: ChunkTag{TensorID: 1, Seq: 0, Epoch: 3},
		guardOff: lay.guard, arrivalOff: lay.arrival}
	if placed, err := mr.placeChunk(newer, 0, stale); err != nil || !placed {
		t.Fatalf("newer-epoch chunk: placed=%v err=%v", placed, err)
	}
	if g := mr.LoadWord(lay.guard); g != 3 {
		t.Errorf("guard = %d after an epoch-3 chunk, want 3", g)
	}
	if placed, _ := mr.placeChunk(tag, 0, src); placed {
		t.Error("epoch-1 chunk landed after the guard rose to 3")
	}
	// Bounds: a seq outside the arrival table is an error, not a write.
	bad := &writeTag{kind: tagChunk, tag: ChunkTag{Seq: lossyArrivalWords, Epoch: 2},
		guardOff: lay.guard, arrivalOff: lay.arrival}
	if _, err := mr.placeChunk(bad, 0, src); !errors.Is(err, ErrBounds) {
		t.Errorf("out-of-table seq: %v", err)
	}
}

// TestRetransmitDescLanesRoundTrip pins the lane count's place on the wire:
// the descriptor's former pad word, between the chunk count and the size.
func TestRetransmitDescLanesRoundTrip(t *testing.T) {
	d := RetransmitDesc{TensorID: 7, Chunks: 9, Lanes: 3, PayloadSize: 4096, Epoch: 5}
	b := d.Marshal()
	if got := binary.LittleEndian.Uint32(b[12:]); got != 3 {
		t.Fatalf("lanes word = %d, want 3", got)
	}
	got, err := UnmarshalRetransmitDesc(b)
	if err != nil || got != d {
		t.Fatalf("round trip %+v -> %+v (%v)", d, got, err)
	}
}

// TestLossyPollRejectsBadLaneCount: a descriptor whose lane count lies
// outside [1, MaxStripes] is torn or foreign; Poll must not adopt its epoch.
func TestLossyPollRejectsBadLaneCount(t *testing.T) {
	const payload = 1 << 10
	_, _, recv := newLossyPair(t, payload, 2)
	announce := func(lanes uint32, epoch uint64) {
		b := RetransmitDesc{TensorID: testTensorID, Chunks: 4, Lanes: lanes,
			PayloadSize: payload, Epoch: epoch}.Marshal()
		for i := 0; i < len(b); i += 8 {
			recv.mr.StoreWord(recv.lay.desc+i, binary.LittleEndian.Uint64(b[i:]))
		}
	}
	for i, lanes := range []uint32{0, MaxStripes + 1, ^uint32(0)} {
		announce(lanes, uint64(i+1))
		if recv.Poll() || recv.curEpoch != 0 {
			t.Fatalf("lanes=%d: receiver adopted epoch %d", lanes, recv.curEpoch)
		}
	}
	announce(MaxStripes, 9)
	recv.Poll()
	if recv.curEpoch != 9 || recv.lanes != MaxStripes {
		t.Fatalf("valid descriptor not adopted: epoch %d lanes %d", recv.curEpoch, recv.lanes)
	}
}

// TestQPBusyRetriesDoNotBurnRetryBudget pins the Retryable/retryLoop
// contract for lease exhaustion: ErrQPBusy waits on its own backoff curve
// and does not consume MaxRetries, so a sender configured with a tight
// fault budget still survives a burst of slot contention.
func TestQPBusyRetriesDoNotBurnRetryBudget(t *testing.T) {
	_, a, b := newPair(t)
	const payload = 256
	rmr, err := b.AllocateMemRegion(StaticSlotSize(payload))
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewStaticReceiver(rmr, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	smr, err := a.AllocateMemRegion(StaticSlotSize(payload))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := a.GetChannel(b.Endpoint(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := NewStaticSender(ch, smr, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyLaneSource{ch: ch, failures: 10}
	sender.SetLaneSource(flaky)
	var busyRetries int
	err = sender.SendRetry(TransferOpts{
		Deadline:   5 * time.Second,
		MaxRetries: 1, // one transient fault allowed — busy bursts must not count
		Backoff:    10 * time.Microsecond,
		OnRetry: func(err error) {
			if errors.Is(err, ErrQPBusy) {
				busyRetries++
			}
		},
	})
	if err != nil {
		t.Fatalf("send through contended mux: %v", err)
	}
	if busyRetries != 10 {
		t.Errorf("busy retries observed = %d, want 10", busyRetries)
	}
	if !recv.Poll() {
		t.Error("payload never arrived")
	}
}

// flakyLaneSource fails the first N acquisitions with ErrQPBusy, modeling
// a saturated mux, then hands out the real channel.
type flakyLaneSource struct {
	mu       sync.Mutex
	ch       *Channel
	failures int
}

func (s *flakyLaneSource) AcquireLanes(peer string) ([]*Channel, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failures > 0 {
		s.failures--
		return nil, nil, fmt.Errorf("rdma: synthetic contention: %w", ErrQPBusy)
	}
	return []*Channel{s.ch}, func() {}, nil
}
