package rdma

import "testing"

// FuzzUnmarshalStripeDesc feeds arbitrary bytes to the stripe-descriptor
// decoder: it must never panic, accepted descriptors must round-trip through
// Marshal, and — the part the transfer paths rely on — Chunks() of any
// decoded descriptor must partition the payload into disjoint, covering,
// non-empty pieces bounded by MaxStripes.
func FuzzUnmarshalStripeDesc(f *testing.F) {
	f.Add(StripeDesc{}.Marshal())
	f.Add(StripeDesc{PayloadSize: 4096, Stripes: 4}.Marshal())
	f.Add(StripeDesc{PayloadSize: 1<<63 + 7, Stripes: 1<<32 - 1}.Marshal())
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := UnmarshalStripeDesc(b)
		if err != nil {
			return
		}
		got, err := UnmarshalStripeDesc(d.Marshal())
		if err != nil || got != d {
			t.Fatalf("round trip %+v -> %+v (%v)", d, got, err)
		}
		chunks := d.Chunks()
		if len(chunks) > MaxStripes {
			t.Fatalf("%+v: %d chunks exceed MaxStripes", d, len(chunks))
		}
		off := 0
		for i, c := range chunks {
			if c.Off != off || c.Size <= 0 {
				t.Fatalf("%+v: chunk %d = {%d,%d}, expected off %d", d, i, c.Off, c.Size, off)
			}
			off += c.Size
		}
		if len(chunks) > 0 && uint64(off) != d.PayloadSize {
			t.Fatalf("%+v: chunks cover %d of %d bytes", d, off, d.PayloadSize)
		}
	})
}
