//go:build amd64 && !purego

package tensor

// The assembly kernels in gemm_amd64.s. Both tiles use separate multiplies
// and adds (never FMA), so they give gemmTileGeneric's bits.
var (
	kernAVX  = gemmKernel{"avx", 16, gemmTileAVX}
	kernSSE2 = gemmKernel{"sse2", 8, gemmTileSSE2}
)

// pickKernel returns the AVX tile where the CPU has AVX and the OS saves
// the YMM state, and the SSE2 tile (the GOAMD64=v1 baseline) otherwise.
func pickKernel() gemmKernel {
	if osHasAVX() {
		return kernAVX
	}
	return kernSSE2
}

// osHasAVX reports CPUID.1:ECX.{OSXSAVE,AVX} and XCR0.{SSE,AVX} all set.
func osHasAVX() bool

// gemmTileAVX is the 4×16 tile: eight YMM accumulators, VMULPS/VADDPS.
//
//go:noescape
func gemmTileAVX(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int)

// gemmTileSSE2 is the 4×8 tile: eight XMM accumulators, MULPS/ADDPS.
//
//go:noescape
func gemmTileSSE2(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int)

// axpy1 is axpy1Generic over raw pointers: for p = 0..k-1,
// c[j] += a[p*aps] * b[p*ldb+j] for j = 0..n-1. It is the compiler's scalar
// MOVSS/MULSS/ADDSS/MOVSS loop in assembly, with its head on a 64-byte
// boundary so that no link layout splits the loop across cache lines.
//
//go:noescape
func axpy1(c *float32, n int, a *float32, aps int, b *float32, ldb, k int)
