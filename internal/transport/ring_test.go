package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdma"
	"repro/internal/transport"
)

// ringDevices creates a two-device fabric for ring tests that drive Dial
// and Accept themselves.
func ringDevices(t *testing.T) (*rdma.Device, *rdma.Device) {
	t.Helper()
	f := rdma.NewFabric()
	server, err := rdma.CreateDevice(f, rdma.Config{Endpoint: "srv:1"})
	if err != nil {
		t.Fatal(err)
	}
	client, err := rdma.CreateDevice(f, rdma.Config{Endpoint: "cli:1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close(); client.Close() })
	return server, client
}

// dialAccept opens one connection pair without a helper goroutine: the
// listener queues the accepted side before Dial returns.
func dialAccept(t *testing.T, l transport.Listener, dial transport.Dialer) (transport.Conn, transport.Conn) {
	t.Helper()
	cli, err := dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return cli, srv
}

// A geometry the slots cannot hold is rejected by Listen and Dial alike,
// before any region is registered: no room for a fragment would make Send
// loop on empty fragments, and an unaligned slot size misaligns the flag.
func TestRingConfigRejectsBadGeometry(t *testing.T) {
	server, _ := ringDevices(t)
	for _, cfg := range []transport.RingConfig{
		{Slots: -1},
		{SlotSize: 8},
		{SlotSize: 16},
		{SlotSize: 36},
		{SlotSize: 4097},
		{SlotSize: -64},
	} {
		t.Run(fmt.Sprintf("%dx%d", cfg.Slots, cfg.SlotSize), func(t *testing.T) {
			net := transport.RingNetwork(server, cfg)
			if l, err := net.Listen(""); !errors.Is(err, rdma.ErrBadConfig) {
				if l != nil {
					l.Close()
				}
				t.Errorf("Listen: err = %v, want rdma.ErrBadConfig", err)
			}
			if c, err := net.Dial("cli:1"); !errors.Is(err, rdma.ErrBadConfig) {
				if c != nil {
					c.Close()
				}
				t.Errorf("Dial: err = %v, want rdma.ErrBadConfig", err)
			}
			if n := server.RegionCount(); n != 0 {
				t.Errorf("rejected config registered %d regions", n)
			}
		})
	}
}

// Close frees every region the connection registered, on both ends, and a
// dial the server refuses leaves nothing registered either.
func TestRingCloseFreesRegions(t *testing.T) {
	server, client := ringDevices(t)
	cfg := transport.RingConfig{Slots: 4, SlotSize: 256}
	l, err := transport.RingNetwork(server, cfg).Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dial := transport.RingNetwork(client, cfg).Dial
	for i := 0; i < 5; i++ {
		cli, srv := dialAccept(t, l, dial)
		if err := cli.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Recv(); err != nil {
			t.Fatal(err)
		}
		cli.Close()
		srv.Close()
		if s, c := server.RegionCount(), client.RegionCount(); s != 0 || c != 0 {
			t.Fatalf("cycle %d: %d server and %d client regions still registered", i, s, c)
		}
	}
	mismatch := transport.RingNetwork(client, transport.RingConfig{Slots: 8, SlotSize: 256})
	if c, err := mismatch.Dial(l.Addr()); err == nil {
		c.Close()
		t.Fatal("mismatched ring configs accepted")
	}
	if s, c := server.RegionCount(), client.RegionCount(); s != 0 || c != 0 {
		t.Fatalf("refused dial left %d server and %d client regions registered", s, c)
	}
}

// Losing the last reuse ack of a burst must not stall the sender: the ack
// is re-posted by the rdma engine's retry timers, so the next Send that
// needs the slot completes well inside SendTimeout, and no goroutine of
// the transport exists while the retried ack lands.
func TestRingLastAckDropRetried(t *testing.T) {
	cfg := transport.RingConfig{Slots: 2, SlotSize: 512, SendTimeout: 5 * time.Second}
	f, cli, srv := ringPair(t, cfg)

	// Fragment writes carry at least a header and a flag, so an 8-byte
	// write is a reuse ack.
	var acks atomic.Int32
	retried := make(chan string, 1)
	f.SetHooks(rdma.Hooks{TransferFault: func(op rdma.Op, size int) error {
		if op != rdma.OpWrite || size != rdma.FlagWordSize {
			return nil
		}
		switch acks.Add(1) {
		case int32(cfg.Slots):
			return fmt.Errorf("drop the burst's last ack: %w", rdma.ErrInjected)
		case int32(cfg.Slots) + 1:
			buf := make([]byte, 1<<20)
			retried <- string(buf[:runtime.Stack(buf, true)])
		}
		return nil
	}})
	defer f.SetHooks(rdma.Hooks{})

	msg := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 100) }
	for k := 0; k < cfg.Slots; k++ {
		if err := cli.Send(msg(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < cfg.Slots; k++ {
		if _, err := srv.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	// The second send of the next round reuses the slot whose ack was lost.
	for k := cfg.Slots; k < 2*cfg.Slots; k++ {
		start := time.Now()
		if err := cli.Send(msg(k)); err != nil {
			t.Fatalf("send %d after the lost ack: %v", k, err)
		}
		if d := time.Since(start); d > cfg.SendTimeout/10 {
			t.Fatalf("send %d took %v waiting for the lost ack (SendTimeout %v)", k, d, cfg.SendTimeout)
		}
	}
	select {
	case stacks := <-retried:
		if strings.Contains(stacks, "created by repro/internal/transport.") {
			t.Errorf("a transport goroutine was alive while the ack was retried:\n%s", stacks)
		}
	case <-time.After(cfg.SendTimeout):
		t.Fatal("the lost ack was never re-posted")
	}
	for k := cfg.Slots; k < 2*cfg.Slots; k++ {
		got, err := srv.Recv()
		if err != nil || !bytes.Equal(got, msg(k)) {
			t.Fatalf("message %d: %v (%d bytes)", k, err, len(got))
		}
	}
}

// An idle ring connection holds no goroutine on either end: Recv polls its
// ring itself and the credit path rides completions and timers.
func TestRingConnHoldsNoGoroutine(t *testing.T) {
	server, client := ringDevices(t)
	cfg := transport.RingConfig{Slots: 4, SlotSize: 256}
	l, err := transport.RingNetwork(server, cfg).Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dial := transport.RingNetwork(client, cfg).Dial
	// The first pair brings up the devices' QPs; measure from there.
	cli, srv := dialAccept(t, l, dial)
	defer cli.Close()
	defer srv.Close()
	// settle lets goroutines of the handshake (RPC handlers, timers) exit:
	// it returns once the count held for 20 ms, or after a second.
	settle := func() int {
		n, held := runtime.NumGoroutine(), 0
		for deadline := time.Now().Add(time.Second); held < 20 && time.Now().Before(deadline); held++ {
			time.Sleep(time.Millisecond)
			if m := runtime.NumGoroutine(); m != n {
				n, held = m, 0
			}
		}
		return n
	}
	base := settle()
	const pairs = 8
	for i := 0; i < pairs; i++ {
		cli, srv := dialAccept(t, l, dial)
		defer cli.Close()
		defer srv.Close()
	}
	if n := settle(); n > base {
		t.Fatalf("%d idle connection pairs hold %d goroutines", pairs, n-base)
	}
}
