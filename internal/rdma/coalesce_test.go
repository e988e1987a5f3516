package rdma

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// coalescedPair builds a sender/receiver pair over a fresh fabric with the
// given batch capacity.
func coalescedPair(t *testing.T, capacity int) (*Fabric, *CoalescedSender, *CoalescedReceiver) {
	t.Helper()
	f, a, b := newPair(t)
	recvMR, err := b.AllocateMemRegion(StaticSlotSize(capacity))
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewCoalescedReceiver(chanTo(t, b, "hostA:1"), recvMR, 0, capacity)
	if err != nil {
		t.Fatal(err)
	}
	sendMR, err := a.AllocateMemRegion(StaticSlotSize(capacity) + FlagWordSize)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := NewCoalescedSender(chanTo(t, a, "hostB:1"), sendMR, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}
	return f, sender, recv
}

func TestCoalescedBatchEndToEnd(t *testing.T) {
	const capacity = 512
	_, sender, recv := coalescedPair(t, capacity)
	opts := TransferOpts{Deadline: 10 * time.Second}

	for round := 0; round < 5; round++ {
		payloads := map[uint32][]byte{
			0: bytes.Repeat([]byte{byte(round)}, 24),
			1: {byte(round), 0xBE, 0xEF},
			2: bytes.Repeat([]byte{0xC0 ^ byte(round)}, 96),
		}
		sender.Reset()
		for id := uint32(0); id < 3; id++ {
			if err := sender.Stage(id, payloads[id]); err != nil {
				t.Fatalf("round %d: stage %d: %v", round, id, err)
			}
		}
		if sender.Count() != 3 {
			t.Fatalf("round %d: staged %d", round, sender.Count())
		}
		if err := sender.FlushRetry(opts); err != nil {
			t.Fatalf("round %d: flush: %v", round, err)
		}
		waitFor(t, "batch flag", recv.Poll)
		msgs, err := recv.Messages()
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if len(msgs) != 3 {
			t.Fatalf("round %d: %d messages", round, len(msgs))
		}
		for _, m := range msgs {
			if !bytes.Equal(m.Payload, payloads[m.ID]) {
				t.Fatalf("round %d: message %d payload mismatch", round, m.ID)
			}
		}
		recv.Consume()
		if err := recv.AckRetry(sender.AckDesc(), opts); err != nil {
			t.Fatalf("round %d: ack: %v", round, err)
		}
		waitFor(t, "sender reusable", sender.PollReusable)
	}
}

// TestCoalescedFlushGatesOnAck: a second flush before the receiver acked
// must not transmit — it times out typed with ErrBusy as the cause — and
// the receiver's slot must keep the first batch intact throughout.
func TestCoalescedFlushGatesOnAck(t *testing.T) {
	_, sender, recv := coalescedPair(t, 256)
	opts := TransferOpts{Deadline: 5 * time.Second}
	if err := sender.Stage(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := sender.FlushRetry(opts); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first batch", recv.Poll)

	sender.Reset()
	if err := sender.Stage(2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	short := TransferOpts{Deadline: 100 * time.Millisecond, MaxRetries: 8}
	err := sender.FlushRetry(short)
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, ErrBusy) {
		t.Fatalf("unacked flush: %v, want ErrTimeout wrapping ErrBusy", err)
	}
	msgs, err := recv.Messages()
	if err != nil || len(msgs) != 1 || msgs[0].ID != 1 || string(msgs[0].Payload) != "first" {
		t.Fatalf("slot disturbed by gated flush: %v %+v", err, msgs)
	}
	recv.Consume()
	if err := recv.AckRetry(sender.AckDesc(), opts); err != nil {
		t.Fatal(err)
	}
	// With the ack delivered the pending batch goes through.
	if err := sender.FlushRetry(opts); err != nil {
		t.Fatalf("post-ack flush: %v", err)
	}
	waitFor(t, "second batch", recv.Poll)
	msgs, err = recv.Messages()
	if err != nil || len(msgs) != 1 || msgs[0].ID != 2 {
		t.Fatalf("second batch: %v %+v", err, msgs)
	}
}

func TestCoalescedStageOverflow(t *testing.T) {
	capacity := wire.BatchHeaderSize + wire.SubMsgSize(16)
	_, sender, _ := coalescedPair(t, capacity)
	if err := sender.Stage(1, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if err := sender.Stage(2, []byte{1}); !errors.Is(err, wire.ErrBatchSpace) {
		t.Fatalf("overflow stage: %v, want wire.ErrBatchSpace", err)
	}
}

// TestCoalescedFlushSurvivesDrops: deterministic transfer drops force flush
// retries; every batch still arrives intact and in order, and the flag is
// never visible over a partial batch (the flush is one ascending write).
func TestCoalescedFlushSurvivesDrops(t *testing.T) {
	f, sender, recv := coalescedPair(t, 256)
	var transfers atomic.Uint64
	f.SetHooks(Hooks{
		TransferFault: func(op Op, size int) error {
			if transfers.Add(1)%3 == 0 {
				return ErrInjected
			}
			return nil
		},
	})
	defer f.SetHooks(Hooks{})

	opts := TransferOpts{Deadline: 10 * time.Second}
	for round := 0; round < 20; round++ {
		sender.Reset()
		want := bytes.Repeat([]byte{byte(round + 1)}, 100)
		if err := sender.Stage(uint32(round), want); err != nil {
			t.Fatal(err)
		}
		if err := sender.FlushRetry(opts); err != nil {
			t.Fatalf("round %d: flush: %v", round, err)
		}
		waitFor(t, "batch under drops", recv.Poll)
		msgs, err := recv.Messages()
		if err != nil || len(msgs) != 1 || msgs[0].ID != uint32(round) || !bytes.Equal(msgs[0].Payload, want) {
			t.Fatalf("round %d: %v %+v", round, err, msgs)
		}
		recv.Consume()
		if err := recv.AckRetry(sender.AckDesc(), opts); err != nil {
			t.Fatalf("round %d: ack: %v", round, err)
		}
	}
}
