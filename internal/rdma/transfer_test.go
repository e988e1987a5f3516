package rdma

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestStaticTransferEndToEnd(t *testing.T) {
	_, a, b := newPair(t)
	const payload = 100

	recvMR, _ := b.AllocateMemRegion(StaticSlotSize(payload))
	recv, err := NewStaticReceiver(recvMR, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	if recv.Poll() {
		t.Fatal("fresh slot must not poll ready")
	}

	sendMR, _ := a.AllocateMemRegion(StaticSlotSize(payload))
	ch, _ := a.GetChannel("hostB:1", 0)
	send, err := NewStaticSender(ch, sendMR, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}

	for iter := 0; iter < 5; iter++ {
		buf := send.Buffer()
		for i := range buf {
			buf[i] = byte(iter + i)
		}
		done := make(chan error, 1)
		if err := send.Send(func(err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		waitFor(t, "flag", recv.Poll)
		got := recv.Payload()
		for i := range got {
			if got[i] != byte(iter+i) {
				t.Fatalf("iter %d byte %d = %d, want %d", iter, i, got[i], byte(iter+i))
			}
		}
		recv.Consume()
		if recv.Poll() {
			t.Fatal("flag should be cleared after Consume")
		}
	}
}

func TestStaticTransferConcurrentPolling(t *testing.T) {
	// The receiver polls on its own goroutine while the sender streams
	// iterations; exercises the acquire/release pairing under the race
	// detector.
	_, a, b := newPair(t)
	const payload = 4096
	const iters = 50

	recvMR, _ := b.AllocateMemRegion(StaticSlotSize(payload))
	recv, _ := NewStaticReceiver(recvMR, 0, payload)
	sendMR, _ := a.AllocateMemRegion(StaticSlotSize(payload))
	ch, _ := a.GetChannel("hostB:1", 1)
	send, _ := NewStaticSender(ch, sendMR, 0, recv.Desc())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < iters; iter++ {
			deadline := time.Now().Add(5 * time.Second)
			for !recv.Poll() {
				if time.Now().After(deadline) {
					t.Error("receiver timed out")
					return
				}
			}
			v := byte(iter)
			for i, got := range recv.Payload() {
				if got != v {
					t.Errorf("iter %d byte %d = %d, want %d", iter, i, got, v)
					return
				}
			}
			recv.Consume()
		}
	}()
	for iter := 0; iter < iters; iter++ {
		buf := send.Buffer()
		for i := range buf {
			buf[i] = byte(iter)
		}
		done := make(chan error, 1)
		if err := send.Send(func(err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		// Mimic the graph's loop control dependency: the next send only
		// happens after the receiver consumed (poll the remote flag via
		// reading our own copy is impossible, so give the receiver time by
		// waiting for it to clear — emulated with a fresh send each round
		// only after a short handshake through a second slot would be
		// overkill for this test; instead wait until receiver consumed).
		waitFor(t, "consume", func() bool { return !recvMR.PollFlag(alignUp(payload)) })
	}
	wg.Wait()
}

func TestStaticSenderSendFrom(t *testing.T) {
	// The RDMA.cp path: payload originates outside registered memory.
	_, a, b := newPair(t)
	const payload = 64
	recvMR, _ := b.AllocateMemRegion(StaticSlotSize(payload))
	recv, _ := NewStaticReceiver(recvMR, 0, payload)
	sendMR, _ := a.AllocateMemRegion(StaticSlotSize(payload))
	ch, _ := a.GetChannel("hostB:1", 0)
	send, _ := NewStaticSender(ch, sendMR, 0, recv.Desc())

	ext := make([]byte, payload)
	for i := range ext {
		ext[i] = 0x5A
	}
	done := make(chan error, 1)
	if err := send.SendFrom(ext, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "flag", recv.Poll)
	for i, v := range recv.Payload() {
		if v != 0x5A {
			t.Fatalf("byte %d = %d", i, v)
		}
	}
	if err := send.SendFrom(make([]byte, 3), nil); !errors.Is(err, ErrBounds) {
		t.Errorf("wrong-size payload: %v", err)
	}
}

func TestStaticSetupValidation(t *testing.T) {
	_, a, b := newPair(t)
	mr, _ := b.AllocateMemRegion(64)
	if _, err := NewStaticReceiver(mr, 4, 8); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unaligned receiver offset: %v", err)
	}
	if _, err := NewStaticReceiver(mr, 0, 1024); !errors.Is(err, ErrBounds) {
		t.Errorf("oversized receiver: %v", err)
	}
	recv, _ := NewStaticReceiver(mr, 0, 8)
	smr, _ := a.AllocateMemRegion(64)
	ch, _ := a.GetChannel("hostB:1", 0)
	if _, err := NewStaticSender(ch, smr, 4, recv.Desc()); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unaligned sender offset: %v", err)
	}
	bad := recv.Desc()
	bad.Region.Endpoint = "elsewhere:1"
	if _, err := NewStaticSender(ch, smr, 0, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("endpoint mismatch: %v", err)
	}
}

func TestDynamicTransferEndToEnd(t *testing.T) {
	_, a, b := newPair(t)

	metaMR, _ := b.AllocateMemRegion(DynMetaSize)
	chBA, _ := b.GetChannel("hostA:1", 0)
	recv, err := NewDynReceiver(chBA, metaMR, 0)
	if err != nil {
		t.Fatal(err)
	}

	scratchMR, _ := a.AllocateMemRegion(DynMetaSize)
	chAB, _ := a.GetChannel("hostB:1", 0)
	send, err := NewDynSender(chAB, scratchMR, 0, recv.Desc())
	if err != nil {
		t.Fatal(err)
	}

	payloadMR, _ := a.AllocateMemRegion(1 << 16)
	dstMR, _ := b.AllocateMemRegion(1 << 16)

	// Varying sizes across iterations, the defining property of the
	// dynamic path.
	sizes := []int{1024, 64, 8192, 16, 40000}
	for iter, size := range sizes {
		if !send.PollReusable() {
			t.Fatalf("iter %d: sender should be reusable", iter)
		}
		pay := payloadMR.Bytes()[:size]
		for i := range pay {
			pay[i] = byte(iter ^ i)
		}
		dims := []uint64{uint64(size / 8), 8}
		done := make(chan error, 1)
		if err := send.Send(payloadMR, 0, size, 1, dims, func(err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}

		var meta DynMeta
		waitFor(t, "metadata flag", func() bool {
			m, ok := recv.Poll()
			if ok {
				meta = m
			}
			return ok
		})
		if meta.DType != 1 || meta.PayloadSize != uint64(size) {
			t.Fatalf("iter %d meta = %+v", iter, meta)
		}
		if len(meta.Dims) != 2 || meta.Dims[0] != uint64(size/8) || meta.Dims[1] != 8 {
			t.Fatalf("iter %d dims = %v", iter, meta.Dims)
		}
		fetched := make(chan error, 1)
		recv.FetchRetryAsync(meta, send.ScratchDesc(), dstMR, 0, TransferOpts{}, func(err error) { fetched <- err })
		if err := <-fetched; err != nil {
			t.Fatal(err)
		}
		got := dstMR.Bytes()[:size]
		for i := range got {
			if got[i] != byte(iter^i) {
				t.Fatalf("iter %d byte %d = %d", iter, i, got[i])
			}
		}
		// Sender becomes reusable once the ack lands.
		waitFor(t, "ack", send.PollReusable)
	}
}

func TestDynamicSenderBusy(t *testing.T) {
	_, a, b := newPair(t)
	metaMR, _ := b.AllocateMemRegion(DynMetaSize)
	chBA, _ := b.GetChannel("hostA:1", 0)
	recv, _ := NewDynReceiver(chBA, metaMR, 0)
	scratchMR, _ := a.AllocateMemRegion(DynMetaSize)
	chAB, _ := a.GetChannel("hostB:1", 0)
	send, _ := NewDynSender(chAB, scratchMR, 0, recv.Desc())
	payloadMR, _ := a.AllocateMemRegion(128)

	done := make(chan error, 1)
	if err := send.Send(payloadMR, 0, 128, 1, []uint64{128}, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Second send before the receiver acked: busy.
	if err := send.Send(payloadMR, 0, 128, 1, []uint64{128}, nil); !errors.Is(err, ErrBusy) {
		t.Errorf("expected ErrBusy, got %v", err)
	}
}

func TestDynamicValidation(t *testing.T) {
	_, a, b := newPair(t)
	metaMR, _ := b.AllocateMemRegion(DynMetaSize)
	chBA, _ := b.GetChannel("hostA:1", 0)
	if _, err := NewDynReceiver(chBA, metaMR, 4); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unaligned meta: %v", err)
	}
	recv, _ := NewDynReceiver(chBA, metaMR, 0)
	scratchMR, _ := a.AllocateMemRegion(DynMetaSize)
	chAB, _ := a.GetChannel("hostB:1", 0)
	send, _ := NewDynSender(chAB, scratchMR, 0, recv.Desc())
	payloadMR, _ := a.AllocateMemRegion(64)
	if err := send.Send(payloadMR, 0, 64, 1, make([]uint64, MaxDims+1), nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("too many dims: %v", err)
	}
	if err := send.Send(payloadMR, 32, 64, 1, []uint64{64}, nil); !errors.Is(err, ErrBounds) {
		t.Errorf("payload oob: %v", err)
	}
	bad := recv.Desc()
	bad.Region.Endpoint = "other:1"
	if _, err := NewDynSender(chAB, scratchMR, 0, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("endpoint mismatch: %v", err)
	}
}

func TestSlotDescMarshalRoundtrip(t *testing.T) {
	s := StaticSlotDesc{Region: RemoteRegion{Endpoint: "h:2", RegionID: 3, Size: 128}, Off: 40, PayloadSize: 80}
	got, err := UnmarshalStaticSlotDesc(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("static roundtrip: %+v != %+v", got, s)
	}
	d := DynSlotDesc{Region: RemoteRegion{Endpoint: "h:9", RegionID: 12, Size: 4096}, Off: 512}
	gd, err := UnmarshalDynSlotDesc(d.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if gd != d {
		t.Errorf("dyn roundtrip: %+v != %+v", gd, d)
	}
	if _, err := UnmarshalStaticSlotDesc(nil); err == nil {
		t.Error("nil static desc accepted")
	}
	if _, err := UnmarshalDynSlotDesc([]byte{1, 2}); err == nil {
		t.Error("short dyn desc accepted")
	}
}

// Descriptor decoders must be total on arbitrary input: decode or error,
// never panic (they parse bytes received from peers).
func TestDescriptorDecodersRobust(t *testing.T) {
	check := func(data []byte) bool {
		_, err1 := UnmarshalRemoteRegion(data)
		_, err2 := UnmarshalStaticSlotDesc(data)
		_, err3 := UnmarshalDynSlotDesc(data)
		_ = err1
		_ = err2
		_ = err3
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
