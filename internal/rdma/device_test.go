package rdma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newPair(t *testing.T) (*Fabric, *Device, *Device) {
	t.Helper()
	f := NewFabric()
	a, err := CreateDevice(f, Config{Endpoint: "hostA:1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CreateDevice(f, Config{Endpoint: "hostB:1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return f, a, b
}

func TestCreateDeviceValidation(t *testing.T) {
	f := NewFabric()
	if _, err := CreateDevice(f, Config{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty endpoint: %v", err)
	}
	if _, err := CreateDevice(f, Config{Endpoint: "x", NumCQs: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative cqs: %v", err)
	}
	d, err := CreateDevice(f, Config{Endpoint: "x:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := CreateDevice(f, Config{Endpoint: "x:1"}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("duplicate endpoint: %v", err)
	}
	if d.Endpoint() != "x:1" {
		t.Errorf("Endpoint = %q", d.Endpoint())
	}
}

func TestAllocateMemRegion(t *testing.T) {
	_, a, _ := newPair(t)
	mr, err := a.AllocateMemRegion(100)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Size() != 104 { // rounded to multiple of 8
		t.Errorf("size = %d, want 104", mr.Size())
	}
	if mr.ID() == 0 {
		t.Error("region id should be nonzero")
	}
	if _, err := a.AllocateMemRegion(0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero size: %v", err)
	}
	if _, err := mr.Slice(100, 8); !errors.Is(err, ErrBounds) {
		t.Errorf("oob slice: %v", err)
	}
	if _, err := mr.Slice(-1, 4); !errors.Is(err, ErrBounds) {
		t.Errorf("negative slice: %v", err)
	}
	s, err := mr.Slice(8, 16)
	if err != nil || len(s) != 16 {
		t.Errorf("slice: %v len %d", err, len(s))
	}
}

func TestRegistrationLimit(t *testing.T) {
	f := NewFabric()
	d, err := CreateDevice(f, Config{Endpoint: "lim:1", MaxRegions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var last *MemRegion
	for i := 0; i < 3; i++ {
		if last, err = d.AllocateMemRegion(8); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.AllocateMemRegion(8); !errors.Is(err, ErrBadConfig) {
		t.Errorf("over limit: %v", err)
	}
	d.FreeMemRegion(last)
	if _, err := d.AllocateMemRegion(8); err != nil {
		t.Errorf("after free: %v", err)
	}
	if d.RegionCount() != 3 {
		t.Errorf("RegionCount = %d", d.RegionCount())
	}
}

func TestGetChannelValidation(t *testing.T) {
	_, a, _ := newPair(t)
	if _, err := a.GetChannel("hostA:1", 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("self channel: %v", err)
	}
	if _, err := a.GetChannel("hostB:1", 99); !errors.Is(err, ErrBadConfig) {
		t.Errorf("qp index oob: %v", err)
	}
	ch, err := a.GetChannel("hostB:1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Remote() != "hostB:1" {
		t.Errorf("Remote = %q", ch.Remote())
	}
}

func TestMemcpyWriteAndRead(t *testing.T) {
	_, a, b := newPair(t)
	src, _ := a.AllocateMemRegion(64)
	dst, _ := b.AllocateMemRegion(64)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i)
	}
	ch, err := a.GetChannel("hostB:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.MemcpySync(0, src, 0, dst.Descriptor(), 64, OpWrite); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst.Bytes() {
		if v != byte(i) {
			t.Fatalf("dst[%d] = %d", i, v)
		}
	}
	// Read back into a different local region.
	back, _ := a.AllocateMemRegion(64)
	if err := ch.MemcpySync(0, back, 0, dst.Descriptor(), 64, OpRead); err != nil {
		t.Fatal(err)
	}
	for i, v := range back.Bytes() {
		if v != byte(i) {
			t.Fatalf("back[%d] = %d", i, v)
		}
	}
}

func TestMemcpySubRanges(t *testing.T) {
	_, a, b := newPair(t)
	src, _ := a.AllocateMemRegion(32)
	dst, _ := b.AllocateMemRegion(32)
	for i := range src.Bytes() {
		src.Bytes()[i] = 0xEE
	}
	ch, _ := a.GetChannel("hostB:1", 0)
	// Unaligned 5-byte write into the middle.
	if err := ch.MemcpySync(3, src, 9, dst.Descriptor(), 5, OpWrite); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst.Bytes() {
		want := byte(0)
		if i >= 9 && i < 14 {
			want = 0xEE
		}
		if v != want {
			t.Fatalf("dst[%d] = %#x, want %#x", i, v, want)
		}
	}
}

func TestMemcpyValidation(t *testing.T) {
	_, a, b := newPair(t)
	src, _ := a.AllocateMemRegion(16)
	dst, _ := b.AllocateMemRegion(16)
	ch, _ := a.GetChannel("hostB:1", 0)
	if err := ch.Memcpy(0, nil, 0, dst.Descriptor(), 8, OpWrite, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil region: %v", err)
	}
	if err := ch.Memcpy(0, src, 0, dst.Descriptor(), -1, OpWrite, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative size: %v", err)
	}
	if err := ch.Memcpy(12, src, 0, dst.Descriptor(), 8, OpWrite, nil); !errors.Is(err, ErrBounds) {
		t.Errorf("local oob: %v", err)
	}
	if err := ch.Memcpy(0, src, 12, dst.Descriptor(), 8, OpWrite, nil); !errors.Is(err, ErrBounds) {
		t.Errorf("remote oob: %v", err)
	}
	// Region id that does not exist on the remote.
	bogus := RemoteRegion{Endpoint: "hostB:1", RegionID: 9999, Size: 64}
	if err := ch.MemcpySync(0, src, 0, bogus, 8, OpWrite); !errors.Is(err, ErrBounds) {
		t.Errorf("bogus region: %v", err)
	}
	// Region descriptor whose endpoint does not match the channel peer.
	wrong := RemoteRegion{Endpoint: "hostC:1", RegionID: 1, Size: 64}
	if err := ch.MemcpySync(0, src, 0, wrong, 8, OpWrite); !errors.Is(err, ErrBadConfig) {
		t.Errorf("wrong endpoint: %v", err)
	}
}

func TestPartition(t *testing.T) {
	f, a, b := newPair(t)
	src, _ := a.AllocateMemRegion(16)
	dst, _ := b.AllocateMemRegion(16)
	ch, _ := a.GetChannel("hostB:1", 0)
	f.Partition("hostA:1", "hostB:1")
	if err := ch.MemcpySync(0, src, 0, dst.Descriptor(), 8, OpWrite); !errors.Is(err, ErrUnreachable) {
		t.Errorf("partitioned write: %v", err)
	}
	f.Heal("hostA:1", "hostB:1")
	if err := ch.MemcpySync(0, src, 0, dst.Descriptor(), 8, OpWrite); err != nil {
		t.Errorf("after heal: %v", err)
	}
}

func TestTransferHooks(t *testing.T) {
	f, a, b := newPair(t)
	var bytesMoved atomic.Int64
	var delayCalls atomic.Int64
	f.SetHooks(Hooks{
		TransferDelay: func(op Op, size int) time.Duration {
			delayCalls.Add(1)
			return 0
		},
		OnTransfer: func(op Op, size int) { bytesMoved.Add(int64(size)) },
	})
	src, _ := a.AllocateMemRegion(128)
	dst, _ := b.AllocateMemRegion(128)
	ch, _ := a.GetChannel("hostB:1", 0)
	if err := ch.MemcpySync(0, src, 0, dst.Descriptor(), 128, OpWrite); err != nil {
		t.Fatal(err)
	}
	if bytesMoved.Load() != 128 || delayCalls.Load() != 1 {
		t.Errorf("hooks: moved %d, delay calls %d", bytesMoved.Load(), delayCalls.Load())
	}
}

// TestOnTransferCountsInlineWords: an inline control word (a reuse ack
// here) is a completed one-sided write like any other, so OnTransfer sees
// exactly one 8-byte write for it.
func TestOnTransferCountsInlineWords(t *testing.T) {
	f, a, b := newPair(t)
	var writes, bytesMoved atomic.Int64
	f.SetHooks(Hooks{OnTransfer: func(op Op, size int) {
		if op == OpWrite {
			writes.Add(1)
		}
		bytesMoved.Add(int64(size))
	}})
	slotMR, _ := a.AllocateMemRegion(StaticSlotSize(8))
	slot, err := NewStaticReceiver(slotMR, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	ackMR, _ := b.AllocateMemRegion(FlagWordSize)
	ack := DynSlotDesc{Region: ackMR.Descriptor()}
	if err := await(func(fin func(error)) {
		slot.AckRetryAsync(nil, chanTo(t, a, "hostB:1"), ack, TransferOpts{}, fin)
	}); err != nil {
		t.Fatal(err)
	}
	if !ackMR.PollFlag(0) {
		t.Fatal("ack word not set")
	}
	if writes.Load() != 1 || bytesMoved.Load() != FlagWordSize {
		t.Errorf("OnTransfer saw %d writes, %d bytes; want 1 write of %d bytes",
			writes.Load(), bytesMoved.Load(), FlagWordSize)
	}
}

func TestMessaging(t *testing.T) {
	_, a, b := newPair(t)
	got := make(chan string, 1)
	b.SetMessageHandler(func(from string, payload []byte) {
		got <- from + ":" + string(payload)
	})
	ch, _ := a.GetChannel("hostB:1", 0)
	done := make(chan error, 1)
	if err := ch.SendMsg([]byte("hello"), func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "hostA:1:hello" {
			t.Errorf("got %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never delivered")
	}
}

func TestQPOrdering(t *testing.T) {
	// Work requests on one QP must complete in posting order.
	_, a, b := newPair(t)
	src, _ := a.AllocateMemRegion(8)
	dst, _ := b.AllocateMemRegion(8)
	ch, _ := a.GetChannel("hostB:1", 0)
	const n = 200
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		if err := ch.Memcpy(0, src, 0, dst.Descriptor(), 8, OpWrite, func(err error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion %d arrived at position %d", v, i)
		}
	}
}

func TestConcurrentChannels(t *testing.T) {
	// Many goroutines on distinct QPs writing to disjoint slots.
	_, a, b := newPair(t)
	const workers = 4
	const slot = 64
	src, _ := a.AllocateMemRegion(workers * slot)
	dst, _ := b.AllocateMemRegion(workers * slot)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, err := a.GetChannel("hostB:1", w)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < slot; i++ {
				src.Bytes()[w*slot+i] = byte(w + 1)
			}
			for iter := 0; iter < 50; iter++ {
				if err := ch.MemcpySync(w*slot, src, w*slot, dst.Descriptor(), slot, OpWrite); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := 0; i < slot; i++ {
			if dst.Bytes()[w*slot+i] != byte(w+1) {
				t.Fatalf("slot %d byte %d = %d", w, i, dst.Bytes()[w*slot+i])
			}
		}
	}
}

func TestCloseRejectsWork(t *testing.T) {
	f := NewFabric()
	a, _ := CreateDevice(f, Config{Endpoint: "ca:1"})
	b, _ := CreateDevice(f, Config{Endpoint: "cb:1"})
	src, _ := a.AllocateMemRegion(8)
	dst, _ := b.AllocateMemRegion(8)
	ch, _ := a.GetChannel("cb:1", 0)
	a.Close()
	if err := ch.Memcpy(0, src, 0, dst.Descriptor(), 8, OpWrite, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("post after close: %v", err)
	}
	if _, err := a.AllocateMemRegion(8); !errors.Is(err, ErrClosed) {
		t.Errorf("alloc after close: %v", err)
	}
	if _, err := a.GetChannel("cb:1", 0); !errors.Is(err, ErrClosed) {
		t.Errorf("channel after close: %v", err)
	}
	a.Close() // idempotent
	b.Close()
	// Transfers to a closed (unregistered) peer fail with no-such-peer.
	c, _ := CreateDevice(f, Config{Endpoint: "cc:1"})
	defer c.Close()
	src2, _ := c.AllocateMemRegion(8)
	ch2, _ := c.GetChannel("cb:1", 0)
	if err := ch2.MemcpySync(0, src2, 0, dst.Descriptor(), 8, OpWrite); !errors.Is(err, ErrNoSuchPeer) {
		t.Errorf("write to closed peer: %v", err)
	}
}

func TestRemoteRegionMarshalRoundtrip(t *testing.T) {
	for _, r := range []RemoteRegion{
		{Endpoint: "h:1", RegionID: 7, Size: 4096},
		{Endpoint: "", RegionID: 0, Size: 0},
		{Endpoint: "very.long.host.name.example.com:65535", RegionID: 1<<32 - 1, Size: 1 << 40},
	} {
		got, err := UnmarshalRemoteRegion(r.Marshal())
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if got != r {
			t.Errorf("roundtrip %+v -> %+v", r, got)
		}
	}
	if _, err := UnmarshalRemoteRegion([]byte{1}); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := UnmarshalRemoteRegion([]byte{10, 0, 'a'}); err == nil {
		t.Error("truncated buffer accepted")
	}
}

func TestOpString(t *testing.T) {
	if OpWrite.String() != "write" || OpRead.String() != "read" {
		t.Error("Op strings wrong")
	}
}

func BenchmarkMemcpyWrite(b *testing.B) {
	for _, size := range []int{4 << 10, 256 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("%dKB", size/1024), func(b *testing.B) {
			f := NewFabric()
			a, _ := CreateDevice(f, Config{Endpoint: "ba:1"})
			c, _ := CreateDevice(f, Config{Endpoint: "bb:1"})
			defer a.Close()
			defer c.Close()
			src, _ := a.AllocateMemRegion(size)
			dst, _ := c.AllocateMemRegion(size)
			ch, _ := a.GetChannel("bb:1", 0)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ch.MemcpySync(0, src, 0, dst.Descriptor(), size, OpWrite); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
