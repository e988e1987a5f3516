package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// Kernel microbenchmarks (scripts/bench.sh → BENCH_kernels.json). Three
// variants per kernel:
//
//	seed     — the pre-optimisation kernel this PR replaced, for an honest
//	           like-for-like speedup figure;
//	serial   — the new kernel pinned to 1 worker;
//	parallel — the new kernel on a 4-worker pool.
//
// On a single-core machine serial ≈ parallel and the speedup over seed comes
// from register tiling, the GEMM micro-kernel and im2col alone; bench.sh
// records runtime.NumCPU so the numbers are interpretable.

// seedMatMul is the kernel MatMul shipped with before this PR: i-k-j axpy
// with a zero-skip, no register blocking, no parallelism.
func seedMatMul(c, a, b *Tensor) {
	m, k := a.Shape()[0], a.Shape()[1]
	n := b.Shape()[1]
	av, bv, cv := a.Float32s(), b.Float32s(), c.Float32s()
	for i := range cv {
		cv[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := av[i*k : (i+1)*k]
		crow := cv[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			aip := arow[p]
			if aip == 0 {
				continue
			}
			brow := bv[p*n : (p+1)*n]
			for j := range crow {
				crow[j] += aip * brow[j]
			}
		}
	}
}

// seedConv2D is the direct 7-loop convolution shipped with before this PR.
func seedConv2D(out, in, filter *Tensor, stride, pad int) {
	n, h, w, ci := in.Shape()[0], in.Shape()[1], in.Shape()[2], in.Shape()[3]
	co, kh, kw := filter.Shape()[0], filter.Shape()[1], filter.Shape()[2]
	oh, ow := out.Shape()[1], out.Shape()[2]
	iv, fv, ov := in.Float32s(), filter.Float32s(), out.Float32s()
	for i := range ov {
		ov[i] = 0
	}
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				outBase := ((b*oh+oy)*ow + ox) * co
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						inBase := ((b*h+iy)*w + ix) * ci
						for f := 0; f < co; f++ {
							fBase := ((f*kh+ky)*kw + kx) * ci
							var sum float32
							for c := 0; c < ci; c++ {
								sum += iv[inBase+c] * fv[fBase+c]
							}
							ov[outBase+f] += sum
						}
					}
				}
			}
		}
	}
}

func withWorkers(b *testing.B, n int, fn func()) {
	b.Helper()
	orig := parallel.Workers()
	parallel.SetWorkers(n)
	defer parallel.SetWorkers(orig)
	b.ResetTimer()
	fn()
}

func BenchmarkMatMul(b *testing.B) {
	for _, size := range []int{128, 512} {
		rng := rand.New(rand.NewSource(9))
		x, y := randMat(rng, size, size), randMat(rng, size, size)
		c := New(Float32, size, size)
		flops := 2 * int64(size) * int64(size) * int64(size)
		b.Run(fmt.Sprintf("%dx%dx%d/seed", size, size, size), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				seedMatMul(c, x, y)
			}
		})
		b.Run(fmt.Sprintf("%dx%dx%d/serial", size, size, size), func(b *testing.B) {
			b.SetBytes(flops)
			withWorkers(b, 1, func() {
				for i := 0; i < b.N; i++ {
					if err := MatMul(c, x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
		b.Run(fmt.Sprintf("%dx%dx%d/parallel", size, size, size), func(b *testing.B) {
			b.SetBytes(flops)
			withWorkers(b, 4, func() {
				for i := 0; i < b.N; i++ {
					if err := MatMul(c, x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkMatMulTrainShapes times the matmuls of an MLP training step with
// batch 32 and 512-wide layers: the forward products 32×512×512 and
// 32×512×64 (m×k×n), the weight gradient aᵀ@b, 512×32×512, and the input
// gradient a@bᵀ, 32×64×512, each serial and on 2 workers. It is separate
// from BenchmarkMatMul, whose sub-benchmark names scripts/bench.sh matches.
func BenchmarkMatMulTrainShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct {
		name    string
		m, k, n int
		mul     func(c, a, b *Tensor) error
		aShape  Shape
		bShape  Shape
	}{
		{"MatMul/32x512x512", 32, 512, 512, MatMul, Shape{32, 512}, Shape{512, 512}},
		{"MatMul/32x512x64", 32, 512, 64, MatMul, Shape{32, 512}, Shape{512, 64}},
		{"MatMulTransA/512x32x512", 512, 32, 512, MatMulTransA, Shape{32, 512}, Shape{32, 512}},
		{"MatMulTransB/32x64x512", 32, 64, 512, MatMulTransB, Shape{32, 64}, Shape{512, 64}},
	}
	for _, tc := range cases {
		x := randMat(rng, tc.aShape[0], tc.aShape[1])
		y := randMat(rng, tc.bShape[0], tc.bShape[1])
		c := New(Float32, tc.m, tc.n)
		for _, workers := range []int{1, 2} {
			name := tc.name + "/serial"
			if workers > 1 {
				name = fmt.Sprintf("%s/workers=%d", tc.name, workers)
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(2 * int64(tc.m) * int64(tc.k) * int64(tc.n))
				withWorkers(b, workers, func() {
					for i := 0; i < b.N; i++ {
						if err := tc.mul(c, x, y); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

func BenchmarkConv2D(b *testing.B) {
	// The two LeNet convolution shapes from the convergence experiment.
	cases := []struct {
		name                                 string
		n, h, w, ci, co, kh, kw, stride, pad int
	}{
		{"lenet-c1", 32, 28, 28, 1, 6, 5, 5, 1, 2},
		{"lenet-c3", 32, 14, 14, 6, 16, 5, 5, 1, 0},
	}
	for _, cc := range cases {
		rng := rand.New(rand.NewSource(10))
		in := New(Float32, cc.n, cc.h, cc.w, cc.ci)
		filter := New(Float32, cc.co, cc.kh, cc.kw, cc.ci)
		RandomUniform(in, rng, 1)
		RandomUniform(filter, rng, 1)
		shape, err := Conv2DShape(in.Shape(), filter.Shape(), cc.stride, cc.pad)
		if err != nil {
			b.Fatal(err)
		}
		out := New(Float32, shape...)
		b.Run(cc.name+"/seed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seedConv2D(out, in, filter, cc.stride, cc.pad)
			}
		})
		b.Run(cc.name+"/serial", func(b *testing.B) {
			withWorkers(b, 1, func() {
				for i := 0; i < b.N; i++ {
					if err := Conv2D(out, in, filter, cc.stride, cc.pad); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
		b.Run(cc.name+"/parallel", func(b *testing.B) {
			withWorkers(b, 4, func() {
				for i := 0; i < b.N; i++ {
					if err := Conv2D(out, in, filter, cc.stride, cc.pad); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkConv2DGrad(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	in := New(Float32, 32, 14, 14, 6)
	filter := New(Float32, 16, 5, 5, 6)
	RandomUniform(in, rng, 1)
	RandomUniform(filter, rng, 1)
	shape, err := Conv2DShape(in.Shape(), filter.Shape(), 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	dout := New(Float32, shape...)
	RandomUniform(dout, rng, 1)
	din := New(Float32, in.Shape()...)
	dfilter := New(Float32, filter.Shape()...)
	b.Run("lenet-c3/serial", func(b *testing.B) {
		withWorkers(b, 1, func() {
			for i := 0; i < b.N; i++ {
				if err := Conv2DGrad(din, dfilter, dout, in, filter, 1, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("lenet-c3/parallel", func(b *testing.B) {
		withWorkers(b, 4, func() {
			for i := 0; i < b.N; i++ {
				if err := Conv2DGrad(din, dfilter, dout, in, filter, 1, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkSoftmax(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	logits := New(Float32, 256, 512)
	RandomUniform(logits, rng, 4)
	probs := New(Float32, 256, 512)
	b.Run("256x512/serial", func(b *testing.B) {
		withWorkers(b, 1, func() {
			for i := 0; i < b.N; i++ {
				if err := Softmax(probs, logits); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("256x512/parallel", func(b *testing.B) {
		withWorkers(b, 4, func() {
			for i := 0; i < b.N; i++ {
				if err := Softmax(probs, logits); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
