package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// Parity properties for the parallel kernels (DESIGN.md §9): results must be
// bit-identical — not merely close — across worker counts and across the
// direct vs im2col convolution paths, including shapes straddling the
// im2colMinWork threshold.

func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d differs: %x vs %x (%g vs %g)",
				name, i, math.Float32bits(got[i]), math.Float32bits(want[i]), got[i], want[i])
		}
	}
}

// forEachWorkerCount runs fn at 1..4 workers on the shared pool, collecting
// the produced float32 slices, and asserts they are all bit-identical.
func forEachWorkerCount(t *testing.T, name string, fn func() []float32) {
	t.Helper()
	orig := parallel.Workers()
	defer parallel.SetWorkers(orig)
	var ref []float32
	for w := 1; w <= 4; w++ {
		parallel.SetWorkers(w)
		out := fn()
		if w == 1 {
			ref = append([]float32(nil), out...)
			continue
		}
		bitsEqual(t, name+"@workers="+string(rune('0'+w)), out, ref)
	}
}

func TestMatMulParityAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{
		{37, 53, 29},  // below minParFMA: serial on every pool
		{70, 67, 31},  // above: row-parallel
		{128, 96, 64}, // above, even dims
		{5, 1, 9},     // degenerate inner dim
		// 4-row blocks and 1-row tails in one call, with n%4 != 0 so the
		// micro-kernel's vector loop and scalar tail both run.
		{34, 45, 67}, // serial
		{33, 512, 7}, // row-parallel
		// Empty output rows and an empty inner dimension: no panic (the
		// blocked kernels must not take &row[0] of an empty row), and c
		// all +0 when k is 0.
		{8, 5, 0},
		{8, 0, 5},
		// The training shapes (full tiles, row-parallel), then column
		// tails below a tile width, row tails, and k = 1.
		{32, 512, 512},
		{512, 32, 512},
		{32, 64, 512},
		{12, 20, 17},
		{4, 3, 33},
		{7, 1, 16},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		aT, bT := transposedMat(a), transposedMat(b)
		c := New(Float32, m, n)
		// Every call starts from a NaN-filled c: each kernel must overwrite it.
		dirty := func() {
			for i := range c.Float32s() {
				c.Float32s()[i] = float32(math.NaN())
			}
		}
		// All three forms accumulate each output from +0 in p = 0..k-1
		// order, exactly as the naive triple loop does (TransB through a
		// transposed copy of b).
		want := naiveMatMul(a, b)
		forEachWorkerCount(t, "matmul", func() []float32 {
			dirty()
			if err := MatMul(c, a, b); err != nil {
				t.Fatal(err)
			}
			return c.Float32s()
		})
		bitsEqual(t, "matmul vs naive", c.Float32s(), want.Float32s())
		forEachWorkerCount(t, "matmulTA", func() []float32 {
			dirty()
			if err := MatMulTransA(c, aT, b); err != nil {
				t.Fatal(err)
			}
			return c.Float32s()
		})
		bitsEqual(t, "matmulTA vs naive", c.Float32s(), want.Float32s())
		forEachWorkerCount(t, "matmulTB", func() []float32 {
			dirty()
			if err := MatMulTransB(c, a, bT); err != nil {
				t.Fatal(err)
			}
			return c.Float32s()
		})
		bitsEqual(t, "matmulTB vs naive", c.Float32s(), want.Float32s())
	}
}

// TestMatMulTransShapeValidation is the regression test for the transpose
// kernels skipping checkMat: rank or dtype mismatches must surface as
// ErrShape/type errors, never index panics.
func TestMatMulTransShapeValidation(t *testing.T) {
	vec := New(Float32, 6)        // rank 1
	mat := New(Float32, 2, 3)     // [2,3]
	out := New(Float32, 3, 3)     // [3,3]
	ints := New(Int32, 2, 3)      // wrong dtype
	bad3 := New(Float32, 2, 3, 1) // rank 3
	for name, err := range map[string]error{
		"TA vec a": MatMulTransA(out, vec, mat),
		"TA vec b": MatMulTransA(out, mat, vec),
		"TA vec c": MatMulTransA(vec, mat, mat),
		"TA rank3": MatMulTransA(out, bad3, mat),
		"TB vec a": MatMulTransB(out, vec, mat),
		"TB vec b": MatMulTransB(out, mat, vec),
		"TB vec c": MatMulTransB(vec, mat, mat),
		"TB rank3": MatMulTransB(out, bad3, mat),
	} {
		if err == nil {
			t.Fatalf("%s: want error, got nil", name)
		}
	}
	if err := MatMulTransA(New(Float32, 4, 4), mat, mat); !errors.Is(err, ErrShape) {
		t.Fatalf("TA dim mismatch: want ErrShape, got %v", err)
	}
	if err := MatMulTransB(New(Float32, 4, 4), mat, New(Float32, 5, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("TB dim mismatch: want ErrShape, got %v", err)
	}
	if err := MatMulTransA(out, ints, mat); err == nil {
		t.Fatal("TA int32 input: want error, got nil")
	}
	if err := MatMulTransB(out, ints, mat); err == nil {
		t.Fatal("TB int32 input: want error, got nil")
	}
}

type convCase struct {
	n, h, w, ci, co, kh, kw, stride, pad int
}

func (cc convCase) String() string {
	return Shape{cc.n, cc.h, cc.w, cc.ci}.String() + "⊛" + Shape{cc.co, cc.kh, cc.kw, cc.ci}.String()
}

var convCases = []convCase{
	{3, 7, 5, 3, 4, 3, 2, 2, 1},   // odd everything, below im2col threshold
	{5, 9, 9, 2, 3, 5, 5, 1, 2},   // above threshold, big kernel, same-pad
	{8, 14, 14, 4, 8, 3, 3, 1, 1}, // above threshold AND parallel batch
	{80, 5, 5, 2, 4, 3, 3, 1, 1},  // direct path AND parallel batch
	{2, 8, 6, 1, 2, 2, 2, 2, 0},   // no padding, stride 2
	{1, 11, 11, 3, 5, 4, 4, 3, 2}, // single sample, stride 3
}

func convOperands(t *testing.T, rng *rand.Rand, cc convCase) (in, filter, out, dout *Tensor) {
	t.Helper()
	in = New(Float32, cc.n, cc.h, cc.w, cc.ci)
	filter = New(Float32, cc.co, cc.kh, cc.kw, cc.ci)
	RandomUniform(in, rng, 1)
	RandomUniform(filter, rng, 1)
	shape, err := Conv2DShape(in.Shape(), filter.Shape(), cc.stride, cc.pad)
	if err != nil {
		t.Fatal(err)
	}
	out = New(Float32, shape...)
	dout = New(Float32, shape...)
	RandomUniform(dout, rng, 1)
	return in, filter, out, dout
}

func TestConv2DParityAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, cc := range convCases {
		in, filter, out, _ := convOperands(t, rng, cc)
		forEachWorkerCount(t, "conv2d "+cc.String(), func() []float32 {
			if err := Conv2D(out, in, filter, cc.stride, cc.pad); err != nil {
				t.Fatal(err)
			}
			return out.Float32s()
		})
	}
}

func TestConv2DGradParityAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, cc := range convCases {
		in, filter, _, dout := convOperands(t, rng, cc)
		din := New(Float32, in.Shape()...)
		dfilter := New(Float32, filter.Shape()...)
		forEachWorkerCount(t, "conv2dgrad din "+cc.String(), func() []float32 {
			if err := Conv2DGrad(din, dfilter, dout, in, filter, cc.stride, cc.pad); err != nil {
				t.Fatal(err)
			}
			return din.Float32s()
		})
		forEachWorkerCount(t, "conv2dgrad dfilter "+cc.String(), func() []float32 {
			if err := Conv2DGrad(din, dfilter, dout, in, filter, cc.stride, cc.pad); err != nil {
				t.Fatal(err)
			}
			return dfilter.Float32s()
		})
	}
}

// conv2DForced computes the forward convolution serially through exactly one
// of the two implementations, ignoring the im2colMinWork threshold.
func conv2DForced(out, in, filter *Tensor, stride, pad int, im2col bool) {
	g := convGeometry(in.Shape(), filter.Shape(), out.Shape()[1], out.Shape()[2], stride, pad)
	iv, fv, ov := in.Float32s(), filter.Float32s(), out.Float32s()
	ft := make([]float32, len(fv))
	transposeInto(ft, fv, g.co, g.patchLen)
	for b := 0; b < g.n; b++ {
		ovb := ov[b*g.patches*g.co : (b+1)*g.patches*g.co]
		if im2col {
			patches := make([]float32, g.patches*g.patchLen)
			fillPatches(patches, iv, g, b)
			im2colForward(ovb, patches, ft, g)
		} else {
			conv2DDirectSample(ovb, iv, fv, g, b)
		}
	}
}

// conv2DGradForced computes both gradients serially through one path.
func conv2DGradForced(din, dfilter, dout, in, filter *Tensor, stride, pad int, im2col bool) {
	g := convGeometry(in.Shape(), filter.Shape(), dout.Shape()[1], dout.Shape()[2], stride, pad)
	iv, fv, gv := in.Float32s(), filter.Float32s(), dout.Float32s()
	dinv, dfv := din.Float32s(), dfilter.Float32s()
	for i := range dinv {
		dinv[i] = 0
	}
	for b := 0; b < g.n; b++ {
		gvb := gv[b*g.patches*g.co : (b+1)*g.patches*g.co]
		if im2col {
			dpatches := make([]float32, g.patches*g.patchLen)
			gemmRows(dpatches, gvb, g.co, 1, fv, 0, g.patches, g.co, g.patchLen)
			col2imAdd(dinv, dpatches, g, b)
		} else {
			convGradDinDirectSample(dinv, gvb, fv, g, b)
		}
	}
	for i := range dfv {
		dfv[i] = 0
	}
	chunks := (g.n + convChunkSamples - 1) / convChunkSamples
	for ci := 0; ci < chunks; ci++ {
		partial := make([]float32, g.co*g.patchLen)
		lo, hi := ci*convChunkSamples, (ci+1)*convChunkSamples
		if hi > g.n {
			hi = g.n
		}
		for b := lo; b < hi; b++ {
			gvb := gv[b*g.patches*g.co : (b+1)*g.patches*g.co]
			if im2col {
				patches := make([]float32, g.patches*g.patchLen)
				fillPatches(patches, iv, g, b)
				matMulTAAcc(partial, gvb, patches, 0, g.co, g.patches, g.co, g.patchLen)
			} else {
				convGradDfilterDirectSample(partial, gvb, iv, g, b)
			}
		}
		for i := range dfv {
			dfv[i] += partial[i]
		}
	}
}

// TestConvPathsBitIdentical pins the im2colMinWork threshold boundary: for
// every geometry — whichever side of the threshold it falls on — the direct
// and im2col implementations must agree bit for bit, so crossing the
// threshold can never change a result.
func TestConvPathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, cc := range convCases {
		in, filter, out, dout := convOperands(t, rng, cc)
		direct := New(Float32, out.Shape()...)
		conv2DForced(out, in, filter, cc.stride, cc.pad, true)
		conv2DForced(direct, in, filter, cc.stride, cc.pad, false)
		bitsEqual(t, "conv2d paths "+cc.String(), out.Float32s(), direct.Float32s())

		dinA, dfA := New(Float32, in.Shape()...), New(Float32, filter.Shape()...)
		dinB, dfB := New(Float32, in.Shape()...), New(Float32, filter.Shape()...)
		conv2DGradForced(dinA, dfA, dout, in, filter, cc.stride, cc.pad, true)
		conv2DGradForced(dinB, dfB, dout, in, filter, cc.stride, cc.pad, false)
		bitsEqual(t, "conv2dgrad din paths "+cc.String(), dinA.Float32s(), dinB.Float32s())
		bitsEqual(t, "conv2dgrad dfilter paths "+cc.String(), dfA.Float32s(), dfB.Float32s())

		// And the public entry points must match the forced references.
		if err := Conv2D(out, in, filter, cc.stride, cc.pad); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "conv2d public "+cc.String(), out.Float32s(), direct.Float32s())
		din, df := New(Float32, in.Shape()...), New(Float32, filter.Shape()...)
		if err := Conv2DGrad(din, df, dout, in, filter, cc.stride, cc.pad); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "conv2dgrad public din "+cc.String(), din.Float32s(), dinA.Float32s())
		bitsEqual(t, "conv2dgrad public dfilter "+cc.String(), df.Float32s(), dfA.Float32s())
	}
}

func TestElementwiseParityAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const big = 40000 // above minParElems
	a, b := New(Float32, big), New(Float32, big)
	RandomUniform(a, rng, 1)
	RandomUniform(b, rng, 1)
	dst := New(Float32, big)
	forEachWorkerCount(t, "add", func() []float32 {
		if err := Add(dst, a, b); err != nil {
			t.Fatal(err)
		}
		return dst.Float32s()
	})
	y := New(Float32, big)
	forEachWorkerCount(t, "axpy", func() []float32 {
		copy(y.Float32s(), b.Float32s())
		if err := Axpy(0.25, a, y); err != nil {
			t.Fatal(err)
		}
		return y.Float32s()
	})
	forEachWorkerCount(t, "relu", func() []float32 {
		if err := ReLU(dst, a); err != nil {
			t.Fatal(err)
		}
		return dst.Float32s()
	})
}

func TestSoftmaxAndBiasParityAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m, n := 150, 220 // m*n above minParElems
	logits := New(Float32, m, n)
	RandomUniform(logits, rng, 4)
	probs := New(Float32, m, n)
	forEachWorkerCount(t, "softmax", func() []float32 {
		if err := Softmax(probs, logits); err != nil {
			t.Fatal(err)
		}
		return probs.Float32s()
	})
	labels := New(Int32, m)
	RandomLabels(labels, rng, n)
	dlogits := New(Float32, m, n)
	forEachWorkerCount(t, "xentgrad", func() []float32 {
		if err := SoftmaxCrossEntropyGrad(dlogits, probs, labels); err != nil {
			t.Fatal(err)
		}
		return dlogits.Float32s()
	})
	grad := New(Float32, m, n)
	RandomUniform(grad, rng, 1)
	db := New(Float32, n)
	forEachWorkerCount(t, "biasgrad", func() []float32 {
		if err := BiasGrad(db, grad); err != nil {
			t.Fatal(err)
		}
		return db.Float32s()
	})
	act := New(Float32, m, n)
	bias := New(Float32, n)
	RandomUniform(bias, rng, 1)
	forEachWorkerCount(t, "addbias", func() []float32 {
		copy(act.Float32s(), grad.Float32s())
		if err := AddBias(act, bias); err != nil {
			t.Fatal(err)
		}
		return act.Float32s()
	})
}

func TestMaxPoolParityAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	in := New(Float32, 16, 32, 32, 4) // 64Ki elements: above minParElems
	RandomUniform(in, rng, 1)
	out := New(Float32, 16, 16, 16, 4)
	idx := New(Int32, 16, 16, 16, 4)
	forEachWorkerCount(t, "maxpool", func() []float32 {
		if err := MaxPool2D(out, idx, in); err != nil {
			t.Fatal(err)
		}
		return out.Float32s()
	})
	dout := New(Float32, 16, 16, 16, 4)
	RandomUniform(dout, rng, 1)
	din := New(Float32, 16, 32, 32, 4)
	forEachWorkerCount(t, "maxpoolgrad", func() []float32 {
		if err := MaxPool2DGrad(din, dout, idx); err != nil {
			t.Fatal(err)
		}
		return din.Float32s()
	})
}
