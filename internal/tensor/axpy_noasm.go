//go:build !amd64 || purego

package tensor

import "unsafe"

// axpy4 computes c_r[j] += x_r * b[j] for r = 0..3 and j = 0..n-1, where
// each c_r and b point at n float32s.
func axpy4(c0, c1, c2, c3, b *float32, n int, x0, x1, x2, x3 float32) {
	axpy4Generic(unsafe.Slice(c0, n), unsafe.Slice(c1, n), unsafe.Slice(c2, n),
		unsafe.Slice(c3, n), unsafe.Slice(b, n), x0, x1, x2, x3)
}
