//go:build !amd64 || purego

package tensor

import "unsafe"

func pickKernel() gemmKernel { return kernGo }

// axpy1 is axpy1Generic over raw pointers: for p = 0..k-1,
// c[j] += a[p*aps] * b[p*ldb+j] for j = 0..n-1.
func axpy1(c *float32, n int, a *float32, aps int, b *float32, ldb, k int) {
	if n <= 0 || k <= 0 {
		return
	}
	axpy1Generic(unsafe.Slice(c, n), unsafe.Slice(a, (k-1)*aps+1), aps,
		unsafe.Slice(b, (k-1)*ldb+n), ldb, k)
}
