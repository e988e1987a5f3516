package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// axpySpecials are the values whose bits an add or multiply can propagate
// differently depending on operand order or fusion: signed zeros,
// infinities, subnormals, overflow-sized finites, and quiet and signaling
// NaNs with distinct payloads and signs.
var axpySpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, 0x807fffff, 0x00400000, // subnormals
	0x7f7fffff, 0xff000000, // huge finites: products overflow
	0x7fc00000, 0x7fc00001, 0xffc12345, 0x7fe00abc, // quiet NaNs
	0x7f800001, 0xffa00000, 0x7f812345, // signaling NaNs
}

// axpyValue returns a special value about a third of the time and an
// ordinary float otherwise.
func axpyValue(rng *rand.Rand) float32 {
	if rng.Intn(3) == 0 {
		return math.Float32frombits(axpySpecials[rng.Intn(len(axpySpecials))])
	}
	return float32(rng.NormFloat64())
}

// checkAxpy4 runs axpy4 and axpy4Generic on copies of the same rows and
// requires identical bits in every element, including the guard floats
// around each row that neither kernel may touch. c holds four rows of
// len(b) floats, each placed at rowOff[r] inside its buffer; b sits at bOff.
func checkAxpy4(t *testing.T, c [4][]float32, b []float32, x [4]float32, rowOff [4]int, bOff int) {
	t.Helper()
	const guard = 4
	n := len(b)
	bBuf := make([]float32, bOff+n+guard)
	copy(bBuf[bOff:], b)
	var got, want [4][]float32
	for r := range c {
		buf := make([]float32, rowOff[r]+n+guard)
		for i := range buf {
			buf[i] = math.Float32frombits(0x7fc0dead)
		}
		copy(buf[rowOff[r]:], c[r])
		got[r] = buf
		want[r] = append([]float32(nil), buf...)
	}
	row := func(rows [4][]float32, r int) []float32 { return rows[r][rowOff[r] : rowOff[r]+n] }
	axpy4(&got[0][rowOff[0]], &got[1][rowOff[1]], &got[2][rowOff[2]], &got[3][rowOff[3]],
		&bBuf[bOff], n, x[0], x[1], x[2], x[3])
	axpy4Generic(row(want, 0), row(want, 1), row(want, 2), row(want, 3), bBuf[bOff:bOff+n],
		x[0], x[1], x[2], x[3])
	for r := range got {
		for j := range got[r] {
			if g, w := math.Float32bits(got[r][j]), math.Float32bits(want[r][j]); g != w {
				t.Fatalf("n=%d rowOff=%v bOff=%d x=%v: row %d buffer index %d: axpy4 %#08x, generic %#08x",
					n, rowOff, bOff, x, r, j, g, w)
			}
		}
	}
}

// TestAxpy4MatchesGeneric pins the micro-kernel to the Go reference bit for
// bit over every vector-loop/tail split up to n=67, unaligned row and b
// starts, and operands drawn heavily from axpySpecials, so NaN-payload
// propagation (which depends on operand order) is checked as well as
// rounding.
func TestAxpy4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for bOff := 0; bOff < 4; bOff++ {
				var c [4][]float32
				var x [4]float32
				var rowOff [4]int
				for r := range c {
					c[r] = make([]float32, n)
					for j := range c[r] {
						c[r][j] = axpyValue(rng)
					}
					x[r] = axpyValue(rng)
					rowOff[r] = (off + r) % 4
				}
				b := make([]float32, n)
				for j := range b {
					b[j] = axpyValue(rng)
				}
				checkAxpy4(t, c, b, x, rowOff, bOff)
			}
		}
	}
}

// FuzzAxpy4 is the same comparison on fuzzer-chosen bits: data supplies the
// rows and b (four bytes per float, cycled), the x words are raw float bits,
// and offs packs the four row offsets and the b offset, two bits each.
func FuzzAxpy4(f *testing.F) {
	f.Add(uint8(7), uint16(0), uint32(0x3f800000), uint32(0x7fc00001), uint32(0x80000000), uint32(0xff800000),
		[]byte{0x01, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0x80, 0x45, 0x23, 0x81, 0x7f, 0x00, 0x00, 0x80, 0x3f})
	f.Add(uint8(67), uint16(0x1e4), uint32(0x7f800001), uint32(0x00000001), uint32(0x7f7fffff), uint32(0xffc12345),
		[]byte{0xff, 0xff, 0x7f, 0x7f, 0x01, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, n uint8, offs uint16, x0, x1, x2, x3 uint32, data []byte) {
		word := func(i int) float32 {
			if len(data) == 0 {
				return float32(i)
			}
			var w uint32
			for k := 0; k < 4; k++ {
				w |= uint32(data[(4*i+k)%len(data)]) << (8 * k)
			}
			return math.Float32frombits(w)
		}
		size := int(n) % 130
		var c [4][]float32
		var rowOff [4]int
		next := 0
		for r := range c {
			c[r] = make([]float32, size)
			for j := range c[r] {
				c[r][j] = word(next)
				next++
			}
			rowOff[r] = int(offs>>(2*r)) & 3
		}
		b := make([]float32, size)
		for j := range b {
			b[j] = word(next)
			next++
		}
		x := [4]float32{math.Float32frombits(x0), math.Float32frombits(x1),
			math.Float32frombits(x2), math.Float32frombits(x3)}
		checkAxpy4(t, c, b, x, rowOff, int(offs>>8)&3)
	})
}
