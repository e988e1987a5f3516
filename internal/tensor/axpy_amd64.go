//go:build amd64 && !purego

package tensor

// axpy4 computes c_r[j] += x_r * b[j] for r = 0..3 and j = 0..n-1, where
// each c_r and b point at n float32s. It is the SSE2 micro-kernel in
// axpy_amd64.s and gives the same bits as axpy4Generic.
//
//go:noescape
func axpy4(c0, c1, c2, c3, b *float32, n int, x0, x1, x2, x3 float32)
