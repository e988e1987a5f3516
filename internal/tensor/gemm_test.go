package tensor

import (
	"fmt"
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

// guardBits fills every float a kernel must not write, so a stray store
// shows up as a changed word.
const guardBits = 0x7fc0dead

// guarded returns a buffer of n floats from fill, followed by guard floats.
func guarded(n int, fill func() float32) []float32 {
	const guard = 4
	buf := make([]float32, n+guard)
	for i := range buf {
		if i < n && fill != nil {
			buf[i] = fill()
		} else {
			buf[i] = math.Float32frombits(guardBits)
		}
	}
	return buf
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range got {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: buffer index %d: got %#08x, want %#08x", what, i, g, w)
		}
	}
}

// tileGeom places one tile's operands: A(r,p) = a[aOff+r*ars+p*aps],
// b[bOff+p*ldb+j], c[cOff+r*ldc+j].
type tileGeom struct {
	k, ars, aps, ldb, ldc int
	aOff, bOff, cOff      int
}

func (g tileGeom) String() string {
	return fmt.Sprintf("k=%d A strides (%d,%d) ldb=%d ldc=%d offsets a%d b%d c%d",
		g.k, g.ars, g.aps, g.ldb, g.ldc, g.aOff, g.bOff, g.cOff)
}

// checkTile runs kern's tile and gemmTileGeneric at the same width on the
// same operands and requires identical bits in all of c's buffer: the block
// itself and every float around it, which neither may touch.
func checkTile(t *testing.T, kern gemmKernel, g tileGeom, fill func() float32) {
	t.Helper()
	w, kk := kern.nr, max(g.k-1, 0)
	a := guarded(g.aOff+(tileRows-1)*g.ars+kk*g.aps+1, fill)
	b := guarded(g.bOff+kk*g.ldb+w, fill)
	got := guarded(g.cOff+(tileRows-1)*g.ldc+w, nil)
	want := append([]float32(nil), got...)
	kern.tile(&got[g.cOff], g.ldc, &a[g.aOff], g.ars, g.aps, &b[g.bOff], g.ldb, g.k)
	gemmTileGeneric(want[g.cOff:], g.ldc, a[g.aOff:], g.ars, g.aps, b[g.bOff:], g.ldb, g.k, w)
	sameBits(t, kern.name+" tile, "+g.String(), got, want)
}

// checkAxpy1 runs axpy1 and axpy1Generic on copies of one n-float row.
func checkAxpy1(t *testing.T, n int, g tileGeom, fill func() float32) {
	t.Helper()
	kk := max(g.k-1, 0)
	a := guarded(g.aOff+kk*g.aps+1, fill)
	b := guarded(g.bOff+kk*g.ldb+n, fill)
	got := guarded(g.cOff+n, fill)
	want := append([]float32(nil), got...)
	axpy1(&got[g.cOff], n, &a[g.aOff], g.aps, &b[g.bOff], g.ldb, g.k)
	axpy1Generic(want[g.cOff:g.cOff+n], a[g.aOff:], g.aps, b[g.bOff:], g.ldb, g.k)
	sameBits(t, fmt.Sprintf("axpy1 n=%d, %v", n, g), got, want)
}

// TestGemmTileMatchesGeneric pins every assembly tile the host can run (SSE2
// always on amd64, AVX where the OS enables it) to the Go tile bit for bit:
// k = 0..67, both A stride forms, leading dimensions wider than the tile,
// unaligned starts, guard floats, and operands drawn heavily from
// axpySpecials, so NaN-payload propagation (which depends on operand order)
// is checked as well as rounding. The Go tile's own pointer form is checked
// too, which is all a purego or non-amd64 build has.
func TestGemmTileMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	fill := func() float32 { return axpyValue(rng) }
	for _, kern := range append(asmKernels(), kernGo) {
		for k := 0; k <= 67; k++ {
			for _, pad := range []int{0, 1, 5} {
				for off := 0; off < 4; off++ {
					ld := kern.nr + pad
					rowMajor := tileGeom{k: k, ars: k + pad, aps: 1, ldb: ld, ldc: ld + off,
						aOff: off, bOff: (off + 1) % 4, cOff: (off + 2) % 4}
					colMajor := rowMajor
					colMajor.ars, colMajor.aps = 1, tileRows+pad
					checkTile(t, kern, rowMajor, fill)
					checkTile(t, kern, colMajor, fill)
				}
			}
		}
	}
}

// TestAxpy1MatchesGeneric is the same comparison for the 1-row loop, over
// n = 0..67 and a few k, A strides and leading dimensions.
func TestAxpy1MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	fill := func() float32 { return axpyValue(rng) }
	for n := 0; n <= 67; n++ {
		for _, k := range []int{0, 1, 2, 5} {
			for off := 0; off < 4; off++ {
				g := tileGeom{k: k, aps: 1 + off, ldb: n + off,
					aOff: off, bOff: (off + 1) % 4, cOff: (off + 3) % 4}
				checkAxpy1(t, n, g, fill)
			}
		}
	}
}

// transposedMat returns the transpose of a 2-D float32 tensor, by the
// plain loop rather than transposeInto, which the TransB path under test
// uses.
func transposedMat(x *Tensor) *Tensor {
	r, c := x.Shape()[0], x.Shape()[1]
	xt := New(Float32, c, r)
	xv, tv := x.Float32s(), xt.Float32s()
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			tv[j*r+i] = xv[i*c+j]
		}
	}
	return xt
}

// TestMatMulEveryKernel runs the three matmul forms through each kernel this
// build has, the Go tile included, against the naive triple loop: full
// tiles, column remainders below each tile width, row tails and k = 1.
func TestMatMulEveryKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	saved := gemm
	defer func() { gemm = saved }()
	for _, kern := range append(asmKernels(), kernGo) {
		gemm = kern
		for _, s := range [][3]int{{8, 9, 32}, {9, 17, 23}, {4, 1, 7}, {6, 33, 16}, {13, 5, 47}} {
			m, k, n := s[0], s[1], s[2]
			a, b := randMat(rng, m, k), randMat(rng, k, n)
			want := naiveMatMul(a, b).Float32s()
			c := New(Float32, m, n)
			if err := MatMul(c, a, b); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, fmt.Sprintf("%s matmul %v", kern.name, s), c.Float32s(), want)
			if err := MatMulTransA(c, transposedMat(a), b); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, fmt.Sprintf("%s matmulTA %v", kern.name, s), c.Float32s(), want)
			if err := MatMulTransB(c, a, transposedMat(b)); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, fmt.Sprintf("%s matmulTB %v", kern.name, s), c.Float32s(), want)
		}
	}
}

// FuzzGemmTile is the tile and 1-row comparison on fuzzer-chosen bits: data
// supplies A, B and C (four bytes per float, cycled), k is the inner
// dimension, and geom packs the A stride form (bit 0), three 2-bit start
// offsets (bits 1-6) and a leading-dimension pad (bits 7-9).
func FuzzGemmTile(f *testing.F) {
	f.Add(uint8(7), uint16(0x0a5),
		[]byte{0x01, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0x80, 0x45, 0x23, 0x81, 0x7f, 0x00, 0x00, 0x80, 0x3f})
	f.Add(uint8(67), uint16(0x3c8), []byte{0xff, 0xff, 0x7f, 0x7f, 0x01, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, k uint8, geom uint16, data []byte) {
		next := 0
		fill := func() float32 {
			next++
			if len(data) == 0 {
				return float32(next)
			}
			var w uint32
			for i := 0; i < 4; i++ {
				w |= uint32(data[(4*next+i)%len(data)]) << (8 * i)
			}
			return math.Float32frombits(w)
		}
		kk, pad := int(k)%70, int(geom>>7)&7
		g := tileGeom{k: kk, ars: kk + pad, aps: 1,
			aOff: int(geom>>1) & 3, bOff: int(geom>>3) & 3, cOff: int(geom>>5) & 3}
		if geom&1 != 0 {
			g.ars, g.aps = 1, tileRows+pad
		}
		for _, kern := range append(asmKernels(), kernGo) {
			g.ldb, g.ldc = kern.nr+pad, kern.nr+pad+g.aOff
			checkTile(t, kern, g, fill)
		}
		g.ldb = kk%19 + pad
		checkAxpy1(t, kk%19, g, fill)
	})
}
