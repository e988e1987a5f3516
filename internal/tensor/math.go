package tensor

import (
	"fmt"
	"math"
)

// Matrix kernels. Each exported entry point validates shapes, then runs a
// row-partitioned micro-kernel either serially or chunked across the shared
// worker pool (internal/parallel). The serial path and every parallel chunk
// execute the same per-row code with per-output accumulation in ascending
// inner-dimension order, so results are bit-identical for any worker count.

// MatMul computes c = a @ b for float32 matrices a:[m,k], b:[k,n], c:[m,n].
// The destination is fully overwritten. Rows of c are computed by a 4-row
// register-blocked axpy kernel: axpy4 multiply-adds a row of b into four
// output rows (SSE2 assembly on amd64, axpy4Generic elsewhere).
func MatMul(c, a, b *Tensor) error {
	if err := checkMat(a, 2); err != nil {
		return err
	}
	if err := checkMat(b, 2); err != nil {
		return err
	}
	if err := checkMat(c, 2); err != nil {
		return err
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || c.shape[0] != m || c.shape[1] != n {
		return fmt.Errorf("tensor: matmul %v @ %v -> %v: %w", a.shape, b.shape, c.shape, ErrShape)
	}
	av, bv, cv := a.Float32s(), b.Float32s(), c.Float32s()
	if m*k*n >= minParFMA {
		pfor(m, rowGrain(m), func(lo, hi int) { matMulRows(cv, av, bv, lo, hi, k, n) })
	} else {
		matMulRows(cv, av, bv, 0, m, k, n)
	}
	return nil
}

// matMulRows computes rows [lo,hi) of c = a @ b. Per output element the
// accumulation order is p = 0..k-1, identical for every (lo,hi) split.
func matMulRows(cv, av, bv []float32, lo, hi, k, n int) {
	// One memclr for the whole row range: interleaving small zeroing loops
	// with the blocked kernel measurably degrades the generated inner loop.
	clear(cv[lo*n : hi*n])
	if n == 0 {
		return // nothing to compute, and &c0[0] of an empty row panics
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := av[i*k : (i+1)*k]
		a1 := av[(i+1)*k : (i+2)*k]
		a2 := av[(i+2)*k : (i+3)*k]
		a3 := av[(i+3)*k : (i+4)*k]
		c0 := cv[i*n : (i+1)*n]
		c1 := cv[(i+1)*n : (i+2)*n]
		c2 := cv[(i+2)*n : (i+3)*n]
		c3 := cv[(i+3)*n : (i+4)*n]
		for p := 0; p < k; p++ {
			brow := bv[p*n : (p+1)*n]
			axpy4(&c0[0], &c1[0], &c2[0], &c3[0], &brow[0], n, a0[p], a1[p], a2[p], a3[p])
		}
	}
	for ; i < hi; i++ {
		arow := av[i*k : (i+1)*k]
		crow := cv[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			aip := arow[p]
			brow := bv[p*n : (p+1)*n]
			brow = brow[:n:n]
			u := crow[:n:n]
			for j := range brow {
				u[j] += aip * brow[j]
			}
		}
	}
}

// matMulRowsAcc is matMulRows without the initial zeroing: c += a @ b.
// The im2col convolution gradients accumulate across batch chunks with it.
func matMulRowsAcc(cv, av, bv []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := av[i*k : (i+1)*k]
		crow := cv[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			aip := arow[p]
			brow := bv[p*n : (p+1)*n]
			brow = brow[:n:n]
			u := crow[:n:n]
			for j := range brow {
				u[j] += aip * brow[j]
			}
		}
	}
}

// MatMulTransA computes c = aᵀ @ b for a:[k,m], b:[k,n], c:[m,n].
func MatMulTransA(c, a, b *Tensor) error {
	if err := checkMat(a, 2); err != nil {
		return err
	}
	if err := checkMat(b, 2); err != nil {
		return err
	}
	if err := checkMat(c, 2); err != nil {
		return err
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || c.shape[0] != m || c.shape[1] != n {
		return fmt.Errorf("tensor: matmulTA %v @ %v -> %v: %w", a.shape, b.shape, c.shape, ErrShape)
	}
	av, bv, cv := a.Float32s(), b.Float32s(), c.Float32s()
	if m*k*n >= minParFMA {
		pfor(m, rowGrain(m), func(lo, hi int) { matMulTARows(cv, av, bv, lo, hi, k, m, n) })
	} else {
		matMulTARows(cv, av, bv, 0, m, k, m, n)
	}
	return nil
}

// matMulTARows computes rows [lo,hi) of c = aᵀ @ b for a:[k,am], b:[k,n].
// Column i of a feeds row i of c; accumulation per output is p = 0..k-1.
func matMulTARows(cv, av, bv []float32, lo, hi, k, am, n int) {
	clear(cv[lo*n : hi*n])
	if n == 0 {
		return // as in matMulRows
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		c0 := cv[i*n : (i+1)*n]
		c1 := cv[(i+1)*n : (i+2)*n]
		c2 := cv[(i+2)*n : (i+3)*n]
		c3 := cv[(i+3)*n : (i+4)*n]
		for p := 0; p < k; p++ {
			ap := av[p*am+i : p*am+i+4]
			brow := bv[p*n : (p+1)*n]
			axpy4(&c0[0], &c1[0], &c2[0], &c3[0], &brow[0], n, ap[0], ap[1], ap[2], ap[3])
		}
	}
	for ; i < hi; i++ {
		crow := cv[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			x := av[p*am+i]
			brow := bv[p*n : (p+1)*n]
			brow = brow[:n:n]
			u := crow[:n:n]
			for j := range brow {
				u[j] += x * brow[j]
			}
		}
	}
}

// matMulTAAcc accumulates c += aᵀ @ b over rows [lo,hi) of c (no zeroing);
// a:[k,am] with k the reduction dimension. Used by the im2col filter
// gradient, which sums per-chunk partials.
func matMulTAAcc(cv, av, bv []float32, lo, hi, k, am, n int) {
	for p := 0; p < k; p++ {
		arow := av[p*am : (p+1)*am]
		brow := bv[p*n : (p+1)*n]
		brow = brow[:n:n]
		for i := lo; i < hi; i++ {
			x := arow[i]
			u := cv[i*n : (i+1)*n]
			u = u[:n:n]
			for j := range brow {
				u[j] += x * brow[j]
			}
		}
	}
}

// MatMulTransB computes c = a @ bᵀ for a:[m,k], b:[n,k], c:[m,n].
func MatMulTransB(c, a, b *Tensor) error {
	if err := checkMat(a, 2); err != nil {
		return err
	}
	if err := checkMat(b, 2); err != nil {
		return err
	}
	if err := checkMat(c, 2); err != nil {
		return err
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || c.shape[0] != m || c.shape[1] != n {
		return fmt.Errorf("tensor: matmulTB %v @ %v -> %v: %w", a.shape, b.shape, c.shape, ErrShape)
	}
	av, bv, cv := a.Float32s(), b.Float32s(), c.Float32s()
	if m*k*n >= minParFMA {
		pfor(m, rowGrain(m), func(lo, hi int) { matMulTBRows(cv, av, bv, lo, hi, k, n) })
	} else {
		matMulTBRows(cv, av, bv, 0, m, k, n)
	}
	return nil
}

// matMulTBRows computes rows [lo,hi) of c = a @ bᵀ: each output is a dot
// product of contiguous rows with a single accumulator over p = 0..k-1.
func matMulTBRows(cv, av, bv []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := av[i*k : (i+1)*k]
		arow = arow[:k:k]
		crow := cv[i*n : (i+1)*n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := bv[j*k : (j+1)*k]
			b1 := bv[(j+1)*k : (j+2)*k]
			b0 = b0[:k:k]
			b1 = b1[:k:k]
			var s0, s1 float32
			for p := range arow {
				x := arow[p]
				s0 += x * b0[p]
				s1 += x * b1[p]
			}
			crow[j] = s0
			crow[j+1] = s1
		}
		for ; j < n; j++ {
			brow := bv[j*k : (j+1)*k]
			brow = brow[:k:k]
			var sum float32
			for p := range arow {
				sum += arow[p] * brow[p]
			}
			crow[j] = sum
		}
	}
}

func checkMat(t *Tensor, rank int) error {
	if t.dtype != Float32 {
		return fmt.Errorf("tensor: want float32, got %v", t.dtype)
	}
	if t.shape.Rank() != rank {
		return fmt.Errorf("tensor: want rank %d, got %v: %w", rank, t.shape, ErrShape)
	}
	return nil
}

// Add computes dst = a + b element-wise; dst may alias a or b.
func Add(dst, a, b *Tensor) error {
	return zipWith(dst, a, b, func(x, y float32) float32 { return x + y })
}

// Sub computes dst = a - b element-wise.
func Sub(dst, a, b *Tensor) error {
	return zipWith(dst, a, b, func(x, y float32) float32 { return x - y })
}

// Mul computes dst = a * b element-wise (Hadamard product).
func Mul(dst, a, b *Tensor) error {
	return zipWith(dst, a, b, func(x, y float32) float32 { return x * y })
}

func zipWith(dst, a, b *Tensor, f func(x, y float32) float32) error {
	if !a.shape.Equal(b.shape) || !dst.shape.Equal(a.shape) {
		return fmt.Errorf("tensor: elementwise %v, %v -> %v: %w", a.shape, b.shape, dst.shape, ErrShape)
	}
	av, bv, dv := a.Float32s(), b.Float32s(), dst.Float32s()
	if len(dv) >= minParElems {
		pfor(len(dv), elemGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dv[i] = f(av[i], bv[i])
			}
		})
		return nil
	}
	for i := range dv {
		dv[i] = f(av[i], bv[i])
	}
	return nil
}

// Axpy computes y += alpha*x, the SGD update kernel.
func Axpy(alpha float32, x, y *Tensor) error {
	if !x.shape.Equal(y.shape) {
		return fmt.Errorf("tensor: axpy %v into %v: %w", x.shape, y.shape, ErrShape)
	}
	xv, yv := x.Float32s(), y.Float32s()
	if len(yv) >= minParElems {
		pfor(len(yv), elemGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				yv[i] += alpha * xv[i]
			}
		})
		return nil
	}
	for i := range yv {
		yv[i] += alpha * xv[i]
	}
	return nil
}

// Scale computes t *= alpha in place.
func Scale(alpha float32, t *Tensor) {
	v := t.Float32s()
	if len(v) >= minParElems {
		pfor(len(v), elemGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v[i] *= alpha
			}
		})
		return
	}
	for i := range v {
		v[i] *= alpha
	}
}

// AddBias adds a bias vector b:[n] to each row of a:[m,n] in place.
func AddBias(a, b *Tensor) error {
	n := b.NumElements()
	if a.shape.Inner() != n {
		return fmt.Errorf("tensor: bias %v onto %v: %w", b.shape, a.shape, ErrShape)
	}
	av, bv := a.Float32s(), b.Float32s()
	rows := len(av) / n
	addRows := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := av[r*n : (r+1)*n]
			for j := range row {
				row[j] += bv[j]
			}
		}
	}
	if len(av) >= minParElems && rows > 1 {
		pfor(rows, rowGrain(rows), addRows)
	} else {
		addRows(0, rows)
	}
	return nil
}

// BiasGrad sums gradient rows grad:[m,n] into db:[n], overwriting db. The
// kernel is column-parallel: each column's sum accumulates over rows in
// ascending order regardless of how columns are chunked, so results are
// bit-identical for any worker count.
func BiasGrad(db, grad *Tensor) error {
	n := db.NumElements()
	if grad.shape.Inner() != n {
		return fmt.Errorf("tensor: biasgrad %v from %v: %w", db.shape, grad.shape, ErrShape)
	}
	gv, dv := grad.Float32s(), db.Float32s()
	sumCols := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			dv[j] = 0
		}
		for off := 0; off < len(gv); off += n {
			row := gv[off+lo : off+hi]
			out := dv[lo:hi]
			for j := range row {
				out[j] += row[j]
			}
		}
	}
	if len(gv) >= minParElems && n >= 64 {
		pfor(n, (n+3)/4, sumCols)
	} else {
		sumCols(0, n)
	}
	return nil
}

// ReduceMax returns the maximum element of a float32 tensor. It is the
// lightweight consumer op used by the paper's §5.1 micro-benchmark.
func ReduceMax(t *Tensor) float32 {
	v := t.Float32s()
	if len(v) == 0 {
		return float32(math.Inf(-1))
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of all elements of a float32 tensor. Kept serial: the
// reduction order is part of the deterministic reference semantics.
func Sum(t *Tensor) float32 {
	var s float32
	for _, x := range t.Float32s() {
		s += x
	}
	return s
}

// Dot returns the inner product of two equally shaped float32 tensors.
func Dot(a, b *Tensor) (float32, error) {
	if !a.shape.Equal(b.shape) {
		return 0, fmt.Errorf("tensor: dot %v · %v: %w", a.shape, b.shape, ErrShape)
	}
	av, bv := a.Float32s(), b.Float32s()
	var s float32
	for i := range av {
		s += av[i] * bv[i]
	}
	return s, nil
}

// L2Norm returns the Euclidean norm of a float32 tensor.
func L2Norm(t *Tensor) float32 {
	var s float64
	for _, x := range t.Float32s() {
		s += float64(x) * float64(x)
	}
	return float32(math.Sqrt(s))
}
