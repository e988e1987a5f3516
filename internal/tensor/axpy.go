package tensor

// axpy4Generic is the 4-row axpy micro-kernel in Go: c_r[j] += x_r * b[j]
// for r = 0..3 and j = 0..len(b)-1. It is the reference for the assembly
// kernel (axpy_amd64.s) and the kernel itself where that does not build.
// Each output takes one rounded multiply and one rounded add per j; the
// assembly kernel must keep that, and the operand order the compiler gives
// this loop (see axpy_amd64.s), to produce the same bits.
func axpy4Generic(c0, c1, c2, c3, b []float32, x0, x1, x2, x3 float32) {
	n := len(b)
	b = b[:n:n]
	u0, u1, u2, u3 := c0[:n:n], c1[:n:n], c2[:n:n], c3[:n:n]
	for j := range b {
		bj := b[j]
		u0[j] += x0 * bj
		u1[j] += x1 * bj
		u2[j] += x2 * bj
		u3[j] += x3 * bj
	}
}
