package tensor

import (
	"fmt"
	"math"

	"repro/internal/alloc"
)

// Matrix kernels. Each exported entry point validates shapes, then runs the
// row-partitioned GEMM kernel (gemm.go) either serially or chunked across the
// shared worker pool (internal/parallel). The serial path and every parallel
// chunk accumulate each output in ascending inner-dimension order, so results
// are bit-identical for any worker count.

// MatMul computes c = a @ b for float32 matrices a:[m,k], b:[k,n], c:[m,n].
// The destination is fully overwritten. Rows of c are computed by the
// register-tiled GEMM kernel (gemm.go), row-parallel above minParFMA.
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
	matMulStrided(c.Float32s(), a.Float32s(), k, 1, b.Float32s(), m, k, n)
	return nil
}

// matMulStrided computes c = A·B for A(i,p) = av[i*ars+p*aps], b:[k,n] and
// c:[m,n], serially or row-parallel.
func matMulStrided(cv, av []float32, ars, aps int, bv []float32, m, k, n int) {
	if m*k*n >= minParFMA {
		pfor(m, rowGrain(m), func(lo, hi int) { gemmRows(cv, av, ars, aps, bv, lo, hi, k, n) })
	} else {
		gemmRows(cv, av, ars, aps, bv, 0, m, k, n)
	}
}

// MatMulTransA computes c = aᵀ @ b for a:[k,m], b:[k,n], c:[m,n]: the
// MatMul kernel with A read column-wise (row stride 1, p stride m).
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
	matMulStrided(c.Float32s(), a.Float32s(), 1, m, b.Float32s(), m, k, n)
	return nil
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

// MatMulTransB computes c = a @ bᵀ for a:[m,k], b:[n,k], c:[m,n]. It
// transposes b into a scratch [k,n] buffer and runs the MatMul kernel, whose
// per-output order (from +0, p ascending) is the dot product's.
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
	bt := transposedScratch(b.Float32s(), n, k)
	matMulStrided(c.Float32s(), a.Float32s(), k, 1, bt, m, k, n)
	alloc.Scratch.PutF32(bt)
	return nil
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
