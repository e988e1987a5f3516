package tensor

import (
	"unsafe"

	"repro/internal/alloc"
)

// The matmul family runs on one register-tiled GEMM micro-kernel. A tile
// computes a tileRows×nr block of C = A·B in registers over p = 0..k-1 and
// stores it once; A is addressed by a row stride and a p stride, so one tile
// serves a:[m,k] (strides k, 1) and aᵀ for a:[k,m] (strides 1, m).
// MatMulTransB transposes B into scratch first and runs the same path.
//
// Bit-identity with the scalar loops the kernels replaced: every output
// accumulates from +0, p ascending, with one rounded multiply and one
// rounded add per p and nothing fused (the Go kernels convert each product
// explicitly, which forbids the compiler to fuse it, e.g. on arm64). The assembly tiles also keep the
// compiled Go operand order — b[p][j] is the multiply's first source and the
// product the add's — so NaN payloads agree with gemmTileGeneric too.

// tileRows is the height of every tile.
const tileRows = 4

// gemmKernel is one tile implementation: tile writes the tileRows×nr block
// c[r*ldc+j] = Σ_p a[r*ars+p*aps] * b[p*ldb+j] (r < tileRows, j < nr), the
// sum taken from +0 with p ascending.
type gemmKernel struct {
	name string
	nr   int
	tile func(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int)
}

// kernGo is the Go tile: the reference the assembly tiles are tested
// against, and the kernel under the purego tag and off amd64.
var kernGo = gemmKernel{"go", 16, gemmTileGo}

// gemm is the kernel the matmuls run. It is chosen once at init
// (gemm_amd64.go); only tests swap it.
var gemm = pickKernel()

// gemmTileGeneric writes the tileRows×w block c = A·B, as gemmKernel.tile
// describes, for any w up to kernGo.nr. It is the Go tile and the column
// remainder (n%nr) of every kernel.
func gemmTileGeneric(c []float32, ldc int, a []float32, ars, aps int, b []float32, ldb, k, w int) {
	var acc [tileRows][16]float32
	u0, u1, u2, u3 := acc[0][:w:w], acc[1][:w:w], acc[2][:w:w], acc[3][:w:w]
	for p := 0; p < k; p++ {
		x0, x1, x2, x3 := a[p*aps], a[ars+p*aps], a[2*ars+p*aps], a[3*ars+p*aps]
		brow := b[p*ldb : p*ldb+w : p*ldb+w]
		for j, bj := range brow {
			u0[j] += float32(x0 * bj)
			u1[j] += float32(x1 * bj)
			u2[j] += float32(x2 * bj)
			u3[j] += float32(x3 * bj)
		}
	}
	for r := range acc {
		copy(c[r*ldc:r*ldc+w], acc[r][:w])
	}
}

// gemmTileGo is gemmTileGeneric at full width behind the kernel signature.
func gemmTileGo(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int) {
	const w = 16
	gemmTileGeneric(unsafe.Slice(c, (tileRows-1)*ldc+w), ldc,
		unsafe.Slice(a, (tileRows-1)*ars+max(k-1, 0)*aps+1), ars, aps,
		unsafe.Slice(b, max(k-1, 0)*ldb+w), ldb, k, w)
}

// axpy1Generic is the 1-row loop: for p = 0..k-1, c[j] += a[p*aps] * b[p*ldb+j]
// for every j < len(c). It is the reference for the assembly axpy1.
func axpy1Generic(c, a []float32, aps int, b []float32, ldb, k int) {
	n := len(c)
	u := c[:n:n]
	for p := 0; p < k; p++ {
		x := a[p*aps]
		brow := b[p*ldb : p*ldb+n : p*ldb+n]
		for j, bj := range brow {
			u[j] += float32(x * bj)
		}
	}
}

// gemmRows writes rows [lo,hi) of c = A·B, where A(i,p) = a[i*ars+p*aps],
// b is [k,n] and c is [·,n]. Per output element the accumulation order is
// p = 0..k-1 from +0, identical for every (lo,hi) split and every kernel.
// Full 4-row blocks run the tile; leftover rows (and the 1- and 2-row chunks
// serving batches split into) run the scalar 1-row loop, axpy1.
func gemmRows(cv, av []float32, ars, aps int, bv []float32, lo, hi, k, n int) {
	if lo >= hi || n == 0 {
		return
	}
	if k == 0 {
		clear(cv[lo*n : hi*n])
		return
	}
	// The kernels index without bounds checks; check the extremes once.
	_, _, _ = av[(hi-1)*ars+(k-1)*aps], bv[k*n-1], cv[hi*n-1]
	kern := gemm
	i := lo
	for ; i+tileRows <= hi; i += tileRows {
		a, c := av[i*ars:], cv[i*n:]
		j := 0
		for ; j+kern.nr <= n; j += kern.nr {
			kern.tile(&c[j], n, &a[0], ars, aps, &bv[j], n, k)
		}
		if j < n {
			gemmTileGeneric(c[j:], n, a, ars, aps, bv[j:], n, k, n-j)
		}
	}
	if i == hi {
		return
	}
	clear(cv[i*n : hi*n])
	for ; i < hi; i++ {
		axpy1(&cv[i*n], n, &av[i*ars], aps, &bv[0], n, k)
	}
}

// transposeInto writes the [cols,rows] transpose of src:[rows,cols] into
// dst. It walks 16-column blocks four source rows at a time, writing four
// adjacent floats into each of sixteen destination rows, so neither side
// strides through more cache lines than L1 holds. It stays serial: on the
// training shapes a parallel split cost more than it saved.
func transposeInto(dst, src []float32, rows, cols int) {
	const cb = 16
	for c0 := 0; c0 < cols; c0 += cb {
		c1 := min(c0+cb, cols)
		r := 0
		for ; r+4 <= rows; r += 4 {
			s0 := src[r*cols+c0 : r*cols+c1]
			s1 := src[(r+1)*cols+c0:][:len(s0)]
			s2 := src[(r+2)*cols+c0:][:len(s0)]
			s3 := src[(r+3)*cols+c0:][:len(s0)]
			for i := range s0 {
				d := dst[(c0+i)*rows+r:][:4:4]
				d[0], d[1], d[2], d[3] = s0[i], s1[i], s2[i], s3[i]
			}
		}
		for ; r < rows; r++ {
			for i, x := range src[r*cols+c0 : r*cols+c1] {
				dst[(c0+i)*rows+r] = x
			}
		}
	}
}

// transposedScratch returns the [k,n] transpose of b:[n,k] in a scratch
// buffer; the caller returns it with alloc.Scratch.PutF32.
func transposedScratch(bv []float32, n, k int) []float32 {
	bt := alloc.Scratch.GetF32(n * k)
	transposeInto(bt, bv, n, k)
	return bt
}
