package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rdma"
)

// connPair builds a connected client/server pair on the given network.
func connPair(t *testing.T, net Network) (client, server Conn) {
	t.Helper()
	l, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err = net.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

func ringNet(t *testing.T) Network {
	t.Helper()
	f := rdma.NewFabric()
	a, err := rdma.CreateDevice(f, rdma.Config{Endpoint: "client:1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rdma.CreateDevice(f, rdma.Config{Endpoint: "server:1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	cfg := RingConfig{Slots: 8, SlotSize: 4096}
	serverNet := RingNetwork(b, cfg)
	clientNet := RingNetwork(a, cfg)
	return Network{
		Name:   "rdma-ring",
		Listen: serverNet.Listen,
		Dial:   clientNet.Dial,
	}
}

func testNetworks(t *testing.T) map[string]Network {
	return map[string]Network{
		"pipe": NewPipeNetwork().Network(),
		"tcp":  TCPNetwork(),
		"ring": ringNet(t),
	}
}

func TestSendRecvAllTransports(t *testing.T) {
	for name, net := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			client, server := connPair(t, net)
			msgs := [][]byte{
				[]byte("hello"),
				{},
				bytes.Repeat([]byte{0xAB}, 100),
			}
			for _, m := range msgs {
				if err := client.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			for _, want := range msgs {
				got, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("got %d bytes, want %d", len(got), len(want))
				}
			}
			// Duplex: server to client too.
			if err := server.Send([]byte("pong")); err != nil {
				t.Fatal(err)
			}
			got, err := client.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "pong" {
				t.Errorf("got %q", got)
			}
		})
	}
}

func TestLargeMessagesFragmented(t *testing.T) {
	// Messages far larger than one ring slot must be fragmented and
	// reassembled intact; also exercises TCP framing of large frames.
	for name, net := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			client, server := connPair(t, net)
			rng := rand.New(rand.NewSource(9))
			sizes := []int{1, 4095, 4096, 4097, 100_000, 1 << 20}
			go func() {
				for _, size := range sizes {
					msg := make([]byte, size)
					rng.Read(msg)
					sum := byte(0)
					for _, b := range msg[:size-1] {
						sum ^= b
					}
					msg[size-1] = sum // checksum in final byte
					if err := client.Send(msg); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for _, size := range sizes {
				got, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != size {
					t.Fatalf("got %d bytes, want %d", len(got), size)
				}
				sum := byte(0)
				for _, b := range got[:size-1] {
					sum ^= b
				}
				if got[size-1] != sum {
					t.Fatalf("checksum mismatch at size %d", size)
				}
			}
		})
	}
}

func TestSenderMayReuseBuffer(t *testing.T) {
	for name, net := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			client, server := connPair(t, net)
			buf := []byte("first")
			if err := client.Send(buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "XXXXX") // mutate immediately after Send returns
			got, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "first" {
				t.Errorf("got %q: transport did not copy on send", got)
			}
		})
	}
}

func TestManyMessagesOrdered(t *testing.T) {
	for name, net := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			client, server := connPair(t, net)
			const n = 500
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					msg := []byte(fmt.Sprintf("msg-%06d", i))
					if err := client.Send(msg); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for i := 0; i < n; i++ {
				got, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("msg-%06d", i)
				if string(got) != want {
					t.Fatalf("position %d: got %q, want %q", i, got, want)
				}
			}
			wg.Wait()
		})
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	for name, net := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			client, server := connPair(t, net)
			done := make(chan error, 1)
			go func() {
				_, err := server.Recv()
				done <- err
			}()
			// Closing either end must unblock the pending Recv. For TCP the
			// peer close surfaces as EOF (mapped to ErrClosed); for pipe and
			// ring, the local close does.
			client.Close()
			server.Close()
			if err := <-done; !errors.Is(err, ErrClosed) {
				t.Errorf("recv after close: %v", err)
			}
		})
	}
}

func TestDialNoListener(t *testing.T) {
	pn := NewPipeNetwork()
	if _, err := pn.Dial("nowhere"); err == nil {
		t.Error("pipe dial to nowhere succeeded")
	}
	if _, err := TCPNetwork().Dial("127.0.0.1:1"); err == nil {
		t.Error("tcp dial to closed port succeeded")
	}
}

func TestListenerAddrUniqueness(t *testing.T) {
	pn := NewPipeNetwork()
	l1, err := pn.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := pn.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr() == l2.Addr() {
		t.Error("auto-assigned addresses collide")
	}
	if _, err := pn.Listen(l1.Addr()); err == nil {
		t.Error("duplicate explicit address accepted")
	}
	l1.Close()
	if _, err := pn.Listen(l1.Addr()); err != nil {
		t.Errorf("address not released on close: %v", err)
	}
	l2.Close()
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	for name, net := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			l, err := net.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := l.Accept()
				done <- err
			}()
			l.Close()
			if err := <-done; !errors.Is(err, ErrClosed) {
				t.Errorf("accept after close: %v", err)
			}
		})
	}
}

func TestRingBackpressure(t *testing.T) {
	// More in-flight fragments than ring slots: flow control must stall
	// rather than corrupt.
	net := ringNet(t)
	client, server := connPair(t, net)
	const n = 100
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			msg := bytes.Repeat([]byte{byte(i)}, 3000)
			if err := client.Send(msg); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3000 || got[0] != byte(i) {
			t.Fatalf("message %d corrupted: len %d first %d", i, len(got), got[0])
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTransportThroughput(b *testing.B) {
	nets := map[string]Network{
		"pipe": NewPipeNetwork().Network(),
		"tcp":  TCPNetwork(),
	}
	for name, net := range nets {
		for _, size := range []int{4 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/%dKB", name, size/1024), func(b *testing.B) {
				l, err := net.Listen("")
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				go func() {
					c, err := l.Accept()
					if err != nil {
						return
					}
					for {
						if _, err := c.Recv(); err != nil {
							return
						}
					}
				}()
				c, err := net.Dial(l.Addr())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				msg := make([]byte, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Send(msg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestRingConfigMismatch(t *testing.T) {
	f := rdma.NewFabric()
	a, err := rdma.CreateDevice(f, rdma.Config{Endpoint: "mma:1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rdma.CreateDevice(f, rdma.Config{Endpoint: "mmb:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	serverNet := RingNetwork(b, RingConfig{Slots: 8, SlotSize: 4096})
	clientNet := RingNetwork(a, RingConfig{Slots: 16, SlotSize: 4096})
	l, err := serverNet.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := clientNet.Dial(l.Addr()); err == nil {
		t.Error("mismatched ring configs accepted")
	}
}

// FuzzUnmarshalRingHello: the handshake decoder never panics on arbitrary
// bytes, and a hello it accepts re-marshals to the same value.
func FuzzUnmarshalRingHello(f *testing.F) {
	for _, seed := range [][]byte{nil, {1}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}} {
		f.Add(seed)
	}
	f.Add(ringHello{Slots: 8, SlotSize: 4096,
		Ring: rdma.RemoteRegion{Endpoint: "server:1", RegionID: 3, Size: 8 * 4096},
		Ack:  rdma.RemoteRegion{Endpoint: "server:1", RegionID: 4, Size: 8*8 + 4096}}.marshal())
	f.Fuzz(func(t *testing.T, buf []byte) {
		h, err := unmarshalRingHello(buf)
		if err != nil {
			return
		}
		again, err := unmarshalRingHello(h.marshal())
		if err != nil || again != h {
			t.Fatalf("hello %+v re-marshals to %+v (%v)", h, again, err)
		}
	})
}
