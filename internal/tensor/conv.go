package tensor

import (
	"fmt"

	"repro/internal/alloc"
)

// Conv2D kernels in NHWC layout with OHWI filters, sufficient for the CIFAR
// convergence model. Two implementations share one accumulation contract:
// every output element is a single accumulator summed in ascending
// (ky,kw,ci)-flattened patch order, and padded taps contribute exact ±0
// terms (adding ±0 to a finite accumulator that starts at +0 is an identity,
// and the accumulator can never become -0). Therefore the direct loop (which
// skips padded taps) and the im2col + blocked-matmul fast path (which
// materialises them as explicit zeros) produce bit-identical results, for
// any worker count.

// Conv2DShape returns the output spatial shape of a convolution of
// input [n,h,w,c] with filter [co,kh,kw,c], stride s, "same"-style padding p.
func Conv2DShape(in Shape, filter Shape, stride, pad int) (Shape, error) {
	if in.Rank() != 4 || filter.Rank() != 4 {
		return nil, fmt.Errorf("tensor: conv2d shapes %v, %v: %w", in, filter, ErrShape)
	}
	if in[3] != filter[3] {
		return nil, fmt.Errorf("tensor: conv2d channels %d vs %d: %w", in[3], filter[3], ErrShape)
	}
	oh := (in[1]+2*pad-filter[1])/stride + 1
	ow := (in[2]+2*pad-filter[2])/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: conv2d empty output for %v ⊛ %v: %w", in, filter, ErrShape)
	}
	return Shape{in[0], oh, ow, filter[0]}, nil
}

// convGeom carries the resolved loop bounds shared by the conv kernels.
type convGeom struct {
	n, h, w, ci   int
	co, kh, kw    int
	oh, ow        int
	stride, pad   int
	patchLen      int // kh*kw*ci, the im2col row length
	patches       int // oh*ow, patch rows per sample
	perSampleMACs int // oh*ow*co*kh*kw*ci
}

func convGeometry(in, filter Shape, oh, ow, stride, pad int) convGeom {
	g := convGeom{
		n: in[0], h: in[1], w: in[2], ci: in[3],
		co: filter[0], kh: filter[1], kw: filter[2],
		oh: oh, ow: ow, stride: stride, pad: pad,
	}
	g.patchLen = g.kh * g.kw * g.ci
	g.patches = g.oh * g.ow
	g.perSampleMACs = g.patches * g.co * g.patchLen
	return g
}

// fillPatches materialises sample b's im2col patch matrix [patches, patchLen]
// into dst: row p = flattened (ky,kx,c) input window of output position p,
// with explicit zeros where the window hangs over the padding.
func fillPatches(dst, iv []float32, g convGeom, b int) {
	for oy := 0; oy < g.oh; oy++ {
		for ox := 0; ox < g.ow; ox++ {
			row := dst[(oy*g.ow+ox)*g.patchLen : (oy*g.ow+ox+1)*g.patchLen]
			for ky := 0; ky < g.kh; ky++ {
				iy := oy*g.stride + ky - g.pad
				for kx := 0; kx < g.kw; kx++ {
					seg := row[(ky*g.kw+kx)*g.ci : (ky*g.kw+kx+1)*g.ci]
					ix := ox*g.stride + kx - g.pad
					if iy < 0 || iy >= g.h || ix < 0 || ix >= g.w {
						for c := range seg {
							seg[c] = 0
						}
						continue
					}
					inBase := ((b*g.h+iy)*g.w + ix) * g.ci
					copy(seg, iv[inBase:inBase+g.ci])
				}
			}
		}
	}
}

// Conv2D computes out = in ⊛ filter with the given stride and symmetric
// zero padding. in:[n,h,w,ci], filter:[co,kh,kw,ci], out:[n,oh,ow,co].
// Samples run in parallel; above im2colMinWork per-sample multiply-adds each
// sample goes through a scratch im2col patch matrix and the GEMM kernel,
// against the OHWI filter transposed once per call from [co, kh*kw*ci] to
// [kh*kw*ci, co].
func Conv2D(out, in, filter *Tensor, stride, pad int) error {
	want, err := Conv2DShape(in.shape, filter.shape, stride, pad)
	if err != nil {
		return err
	}
	if !out.shape.Equal(want) {
		return fmt.Errorf("tensor: conv2d out %v, want %v: %w", out.shape, want, ErrShape)
	}
	g := convGeometry(in.shape, filter.shape, out.shape[1], out.shape[2], stride, pad)
	iv, fv, ov := in.Float32s(), filter.Float32s(), out.Float32s()
	im2col := g.perSampleMACs >= im2colMinWork
	var ft []float32 // the filter as a [patchLen, co] matrix
	if im2col {
		ft = transposedScratch(fv, g.co, g.patchLen)
	}
	sample := func(b int) {
		ovb := ov[b*g.patches*g.co : (b+1)*g.patches*g.co]
		if im2col {
			patches := alloc.Scratch.GetF32(g.patches * g.patchLen)
			fillPatches(patches, iv, g, b)
			im2colForward(ovb, patches, ft, g)
			alloc.Scratch.PutF32(patches)
			return
		}
		conv2DDirectSample(ovb, iv, fv, g, b)
	}
	if g.n > 1 && g.n*g.perSampleMACs >= minParFMA {
		pfor(g.n, 1, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				sample(b)
			}
		})
	} else {
		for b := 0; b < g.n; b++ {
			sample(b)
		}
	}
	alloc.Scratch.PutF32(ft)
	return nil
}

// im2colForward writes one sample's output [patches, co] = patches @ ft,
// with ft the filter transposed to [patchLen, co].
func im2colForward(ovb, patches, ft []float32, g convGeom) {
	gemmRows(ovb, patches, g.patchLen, 1, ft, 0, g.patches, g.patchLen, g.co)
}

// conv2DDirectSample is the small-shape forward path: one flat accumulator
// per output element, taps visited in ascending (ky,kx,c) order, padded taps
// skipped (a ±0 identity — see the package comment above).
func conv2DDirectSample(ovb, iv, fv []float32, g convGeom, b int) {
	for oy := 0; oy < g.oh; oy++ {
		for ox := 0; ox < g.ow; ox++ {
			outBase := (oy*g.ow + ox) * g.co
			for f := 0; f < g.co; f++ {
				var sum float32
				for ky := 0; ky < g.kh; ky++ {
					iy := oy*g.stride + ky - g.pad
					if iy < 0 || iy >= g.h {
						continue
					}
					for kx := 0; kx < g.kw; kx++ {
						ix := ox*g.stride + kx - g.pad
						if ix < 0 || ix >= g.w {
							continue
						}
						inBase := ((b*g.h+iy)*g.w + ix) * g.ci
						fBase := ((f*g.kh+ky)*g.kw + kx) * g.ci
						for c := 0; c < g.ci; c++ {
							sum += iv[inBase+c] * fv[fBase+c]
						}
					}
				}
				ovb[outBase+f] = sum
			}
		}
	}
}

// Conv2DGrad computes gradients of Conv2D: din (may be nil to skip) and
// dfilter (may be nil to skip) from dout.
//
// din is sample-independent, so samples run in parallel with disjoint
// writes. dfilter reduces over the batch: samples are grouped into fixed
// convChunkSamples-sized chunks whose boundaries depend only on the batch
// size, each chunk accumulates into a private scratch partial, and the
// partials are reduced into dfilter in ascending chunk order — the result is
// therefore independent of the worker count.
func Conv2DGrad(din, dfilter, dout, in, filter *Tensor, stride, pad int) error {
	g := convGeometry(in.shape, filter.shape, dout.shape[1], dout.shape[2], stride, pad)
	iv, fv, gv := in.Float32s(), filter.Float32s(), dout.Float32s()
	var dinv, dfv []float32
	if din != nil {
		if !din.shape.Equal(in.shape) {
			return fmt.Errorf("tensor: conv2dgrad din %v, want %v: %w", din.shape, in.shape, ErrShape)
		}
		dinv = din.Float32s()
	}
	if dfilter != nil {
		if !dfilter.shape.Equal(filter.shape) {
			return fmt.Errorf("tensor: conv2dgrad dfilter %v, want %v: %w", dfilter.shape, filter.shape, ErrShape)
		}
		dfv = dfilter.Float32s()
	}
	im2col := g.perSampleMACs >= im2colMinWork
	par := g.n > 1 && g.n*g.perSampleMACs >= minParFMA

	if dinv != nil {
		dinSample := func(b int) {
			dinb := dinv[b*g.h*g.w*g.ci : (b+1)*g.h*g.w*g.ci]
			for i := range dinb {
				dinb[i] = 0
			}
			gvb := gv[b*g.patches*g.co : (b+1)*g.patches*g.co]
			if im2col {
				dpatches := alloc.Scratch.GetF32(g.patches * g.patchLen)
				gemmRows(dpatches, gvb, g.co, 1, fv, 0, g.patches, g.co, g.patchLen)
				col2imAdd(dinv, dpatches, g, b)
				alloc.Scratch.PutF32(dpatches)
				return
			}
			convGradDinDirectSample(dinv, gvb, fv, g, b)
		}
		if par {
			pfor(g.n, 1, func(lo, hi int) {
				for b := lo; b < hi; b++ {
					dinSample(b)
				}
			})
		} else {
			for b := 0; b < g.n; b++ {
				dinSample(b)
			}
		}
	}

	if dfv != nil {
		for i := range dfv {
			dfv[i] = 0
		}
		chunks := (g.n + convChunkSamples - 1) / convChunkSamples
		partials := make([][]float32, chunks)
		chunk := func(ci int) {
			partial := alloc.Scratch.GetF32(g.co * g.patchLen)
			for i := range partial {
				partial[i] = 0
			}
			lo := ci * convChunkSamples
			hi := lo + convChunkSamples
			if hi > g.n {
				hi = g.n
			}
			for b := lo; b < hi; b++ {
				gvb := gv[b*g.patches*g.co : (b+1)*g.patches*g.co]
				if im2col {
					patches := alloc.Scratch.GetF32(g.patches * g.patchLen)
					fillPatches(patches, iv, g, b)
					matMulTAAcc(partial, gvb, patches, 0, g.co, g.patches, g.co, g.patchLen)
					alloc.Scratch.PutF32(patches)
				} else {
					convGradDfilterDirectSample(partial, gvb, iv, g, b)
				}
			}
			partials[ci] = partial
		}
		if par && chunks > 1 {
			pfor(chunks, 1, func(lo, hi int) {
				for ci := lo; ci < hi; ci++ {
					chunk(ci)
				}
			})
		} else {
			for ci := 0; ci < chunks; ci++ {
				chunk(ci)
			}
		}
		for _, partial := range partials {
			for i := range dfv {
				dfv[i] += partial[i]
			}
			alloc.Scratch.PutF32(partial)
		}
	}
	return nil
}

// col2imAdd scatters sample b's patch-space gradient [patches, patchLen]
// back onto the input gradient, visiting patches in ascending order so every
// input position accumulates its contributions in a fixed order.
func col2imAdd(dinv, dpatches []float32, g convGeom, b int) {
	for oy := 0; oy < g.oh; oy++ {
		for ox := 0; ox < g.ow; ox++ {
			row := dpatches[(oy*g.ow+ox)*g.patchLen : (oy*g.ow+ox+1)*g.patchLen]
			for ky := 0; ky < g.kh; ky++ {
				iy := oy*g.stride + ky - g.pad
				if iy < 0 || iy >= g.h {
					continue
				}
				for kx := 0; kx < g.kw; kx++ {
					ix := ox*g.stride + kx - g.pad
					if ix < 0 || ix >= g.w {
						continue
					}
					seg := row[(ky*g.kw+kx)*g.ci : (ky*g.kw+kx+1)*g.ci]
					inBase := ((b*g.h+iy)*g.w + ix) * g.ci
					dst := dinv[inBase : inBase+g.ci]
					for c := range seg {
						dst[c] += seg[c]
					}
				}
			}
		}
	}
}

// convGradDinDirectSample mirrors col2imAdd ∘ (dout @ filter) with direct
// loops: per (patch, tap) the filter-output reduction runs f-ascending into
// a fresh accumulator, then adds to the input gradient — the same
// per-element order as the im2col path.
func convGradDinDirectSample(dinv, gvb, fv []float32, g convGeom, b int) {
	for oy := 0; oy < g.oh; oy++ {
		for ox := 0; ox < g.ow; ox++ {
			outBase := (oy*g.ow + ox) * g.co
			for ky := 0; ky < g.kh; ky++ {
				iy := oy*g.stride + ky - g.pad
				if iy < 0 || iy >= g.h {
					continue
				}
				for kx := 0; kx < g.kw; kx++ {
					ix := ox*g.stride + kx - g.pad
					if ix < 0 || ix >= g.w {
						continue
					}
					inBase := ((b*g.h+iy)*g.w + ix) * g.ci
					for c := 0; c < g.ci; c++ {
						var s float32
						for f := 0; f < g.co; f++ {
							s += gvb[outBase+f] * fv[((f*g.kh+ky)*g.kw+kx)*g.ci+c]
						}
						dinv[inBase+c] += s
					}
				}
			}
		}
	}
}

// convGradDfilterDirectSample accumulates sample b's filter-gradient
// contribution into partial [co, patchLen], patches ascending — the same
// per-element order as matMulTAAcc over the im2col patch matrix.
func convGradDfilterDirectSample(partial, gvb, iv []float32, g convGeom, b int) {
	for oy := 0; oy < g.oh; oy++ {
		for ox := 0; ox < g.ow; ox++ {
			outBase := (oy*g.ow + ox) * g.co
			for f := 0; f < g.co; f++ {
				gout := gvb[outBase+f]
				for ky := 0; ky < g.kh; ky++ {
					iy := oy*g.stride + ky - g.pad
					if iy < 0 || iy >= g.h {
						continue
					}
					for kx := 0; kx < g.kw; kx++ {
						ix := ox*g.stride + kx - g.pad
						if ix < 0 || ix >= g.w {
							continue
						}
						inBase := ((b*g.h+iy)*g.w + ix) * g.ci
						fBase := (f*g.kh*g.kw + ky*g.kw + kx) * g.ci
						for c := 0; c < g.ci; c++ {
							partial[fBase+c] += gout * iv[inBase+c]
						}
					}
				}
			}
		}
	}
}

// MaxPool2D computes 2×2 stride-2 max pooling of in:[n,h,w,c] into
// out:[n,h/2,w/2,c] and records the argmax index of each window in idx
// (Int32, same shape as out) for the backward pass. Samples run in parallel;
// windows are disjoint so writes never overlap.
func MaxPool2D(out, idx, in *Tensor) error {
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow := h/2, w/2
	want := Shape{n, oh, ow, c}
	if !out.shape.Equal(want) || !idx.shape.Equal(want) {
		return fmt.Errorf("tensor: maxpool out %v, want %v: %w", out.shape, want, ErrShape)
	}
	iv, ov, xv := in.Float32s(), out.Float32s(), idx.Int32s()
	pool := func(lo, hi int) {
		for b := lo; b < hi; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					for ch := 0; ch < c; ch++ {
						best := float32(0)
						bestIdx := -1
						for dy := 0; dy < 2; dy++ {
							for dx := 0; dx < 2; dx++ {
								pos := ((b*h+oy*2+dy)*w+ox*2+dx)*c + ch
								if bestIdx < 0 || iv[pos] > best {
									best, bestIdx = iv[pos], pos
								}
							}
						}
						o := ((b*oh+oy)*ow+ox)*c + ch
						ov[o], xv[o] = best, int32(bestIdx)
					}
				}
			}
		}
	}
	if n > 1 && len(iv) >= minParElems {
		pfor(n, 1, pool)
	} else {
		pool(0, n)
	}
	return nil
}

// MaxPool2DGrad scatters dout back through the argmax indices into din.
// Each sample's indices point only into that sample's input region, so
// samples run in parallel with disjoint writes.
func MaxPool2DGrad(din, dout, idx *Tensor) error {
	if !dout.shape.Equal(idx.shape) {
		return fmt.Errorf("tensor: maxpoolgrad %v vs idx %v: %w", dout.shape, idx.shape, ErrShape)
	}
	dv, gv, xv := din.Float32s(), dout.Float32s(), idx.Int32s()
	n := din.shape[0]
	if n == 0 {
		return nil
	}
	inPer, outPer := len(dv)/n, len(gv)/n
	scatter := func(lo, hi int) {
		for b := lo; b < hi; b++ {
			dst := dv[b*inPer : (b+1)*inPer]
			for i := range dst {
				dst[i] = 0
			}
			for i := b * outPer; i < (b+1)*outPer; i++ {
				dv[xv[i]] += gv[i]
			}
		}
	}
	if n > 1 && len(dv) >= minParElems {
		pfor(n, 1, scatter)
	} else {
		scatter(0, n)
	}
	return nil
}
