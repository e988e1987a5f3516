package rdma

import "testing"

// FuzzUnmarshalRetransmitDesc: the lossy protocol's epoch-announcement
// decoder must be total on arbitrary bytes (the receiver reassembles it
// from remotely written words, so torn or hostile inputs are routine) and
// accepted descriptors must round-trip through Marshal.
func FuzzUnmarshalRetransmitDesc(f *testing.F) {
	f.Add(RetransmitDesc{}.Marshal())
	f.Add(RetransmitDesc{TensorID: 0xBEEF, Chunks: 8, Lanes: 4, PayloadSize: 1 << 20, Epoch: 3}.Marshal())
	f.Add(RetransmitDesc{TensorID: ^uint64(0), Chunks: ^uint32(0), Lanes: ^uint32(0),
		PayloadSize: ^uint64(0), Epoch: ^uint64(0)}.Marshal())
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := UnmarshalRetransmitDesc(b)
		if err != nil {
			return
		}
		got, err := UnmarshalRetransmitDesc(d.Marshal())
		if err != nil || got != d {
			t.Fatalf("round trip %+v -> %+v (%v)", d, got, err)
		}
	})
}

// FuzzUnmarshalNackDesc: same totality and round-trip contract for the
// receiver→sender NACK/ack header.
func FuzzUnmarshalNackDesc(f *testing.F) {
	f.Add(NackDesc{}.Marshal())
	f.Add(NackDesc{TensorID: 7, Missing: 0b1010, Seq: 4, Epoch: 9}.Marshal())
	f.Add(NackDesc{TensorID: ^uint64(0), Missing: ^uint64(0), Seq: ^uint64(0), Epoch: ^uint64(0)}.Marshal())
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := UnmarshalNackDesc(b)
		if err != nil {
			return
		}
		got, err := UnmarshalNackDesc(d.Marshal())
		if err != nil || got != d {
			t.Fatalf("round trip %+v -> %+v (%v)", d, got, err)
		}
	})
}
