package nn

import (
	"fmt"
	"math"

	"deepfusion/internal/tensor"
)

// This file is the zero-allocation inference surface of the layer
// framework. Infer runs any layer's inference forward at either
// element width: it reads the layer's weights, writes its output into
// workspace-pooled buffers, and caches nothing for Backward — the
// steady-state path of the screening engine. After one warm-up batch
// an Infer pass performs zero heap allocations.
//
// Each layer's inference forward exists once, generic over the width.
// At float64 its outputs are byte-identical to Forward(x, false):
// identical loops, identical per-element term order, only the buffer
// ownership changes. At float32 the same loops run on weights
// converted once per workspace (panel pack, transpose or vector cache
// time), so the two widths differ only in rounding, never in algorithm
// choice. The only width-specific steps are leaves picked once per
// call: the SSE kernels behind tensor.Axpy and the packed GEMM, and
// BatchNorm's folded f32 form (foldedInto) against the f64 reference
// formula (unfoldedInto).
//
// Infer runs serially in the calling goroutine (no ParallelFor) — the
// screening engine's rank goroutines are the parallelism, one
// workspace each, mirroring the paper's one-model-instance-per-GPU
// deployment.

// Workspace owns the pooled buffers and cached weight conversions of
// one inference stream, one Buffers per element width, so a workspace
// serves whichever precision a batch runs at. It is not safe for
// concurrent use; the screening engine gives each rank its own.
//
// Cached weight forms are keyed by weight tensor identity and assume
// the weights are frozen: create workspaces after training (rank
// replicas are cloned from trained models), or drop the workspace if
// weights change.
type Workspace struct {
	f64 *Buffers[float64]
	f32 *Buffers[float32]
}

// Buffers is the per-width half of a Workspace: the tensor arena and
// the weights converted to T — panel packings, transposes, parameter
// vectors, folded BatchNorms — each built on first use and reused for
// the life of the workspace.
type Buffers[T tensor.Float] struct {
	Arena *tensor.Arena[T]
	packs map[*tensor.Tensor]*tensor.PackedB[T]
	trans map[*tensor.Tensor]*tensor.Dense[T]
	vecs  map[*tensor.Tensor][]T
	bn    map[*tensor.Tensor]*bnFold[T]
}

func newBuffers[T tensor.Float]() *Buffers[T] {
	return &Buffers[T]{
		Arena: tensor.NewArena[T](),
		packs: map[*tensor.Tensor]*tensor.PackedB[T]{},
		trans: map[*tensor.Tensor]*tensor.Dense[T]{},
		vecs:  map[*tensor.Tensor][]T{},
		bn:    map[*tensor.Tensor]*bnFold[T]{},
	}
}

// NewWorkspace returns an empty inference workspace.
func NewWorkspace() *Workspace {
	return &Workspace{f64: newBuffers[float64](), f32: newBuffers[float32]()}
}

// BuffersOf returns ws's buffers for element width T.
func BuffersOf[T tensor.Float](ws *Workspace) *Buffers[T] {
	if b, ok := any(ws.f32).(*Buffers[T]); ok {
		return b
	}
	return any(ws.f64).(*Buffers[T])
}

// Reset recycles the per-batch buffers of both widths. Cached weight
// conversions persist — they are the once-per-(weights, shape) part
// of the steady state.
func (ws *Workspace) Reset() {
	ws.f64.Arena.Reset()
	ws.f32.Arena.Reset()
}

// PackedTransposed returns the cached panel packing of wᵀ at width T,
// viewing w's data as a row-major n x k matrix (higher-rank conv
// kernels collapse).
func (b *Buffers[T]) PackedTransposed(w *tensor.Tensor, n, k int) *tensor.PackedB[T] {
	if pb, ok := b.packs[w]; ok {
		return pb
	}
	pb := &tensor.PackedB[T]{}
	pb.PackTransposed(w.Data, n, k)
	b.packs[w] = pb
	return pb
}

// Transposed returns the cached materialized transpose of w at width
// T, viewing w as a row-major n x k matrix, shaped [k, n] — the layout
// the sparse scatter and tile convolutions read.
func (b *Buffers[T]) Transposed(w *tensor.Tensor, n, k int) *tensor.Dense[T] {
	if t, ok := b.trans[w]; ok {
		return t
	}
	t := tensor.TransposeFrom64[T](w.Data, n, k)
	b.trans[w] = t
	return t
}

// Vec returns a frozen parameter vector (biases, the direct
// convolution's flat kernel) at width T: the weights' own storage at
// float64, a cached conversion at float32.
func (b *Buffers[T]) Vec(v *tensor.Tensor) []T {
	if d, ok := any(v.Data).([]T); ok {
		return d
	}
	if c, ok := b.vecs[v]; ok {
		return c
	}
	c := make([]T, len(v.Data))
	for i, x := range v.Data {
		c[i] = T(x)
	}
	b.vecs[v] = c
	return c
}

// Infer is the inference-mode forward of every layer: Forward with
// train=false at x's element width, into the workspace's pooled
// buffers. A Sequential runs its layers in order; a layer kind without
// an inference path is a programming error and panics.
func Infer[T tensor.Float](l Layer, x *tensor.Dense[T], ws *Workspace) *tensor.Dense[T] {
	switch l := l.(type) {
	case *Sequential:
		for _, sub := range l.Layers {
			x = Infer(sub, x, ws)
		}
		return x
	case *Dense:
		return inferDense(l, x, ws)
	case *Activation:
		return inferActivation(l, x, ws)
	case *Dropout:
		return x // inference dropout is the identity
	case *Flatten:
		n := x.Dim(0)
		return BuffersOf[T](ws).Arena.View(x.Data, n, x.Len()/n)
	case *BatchNorm:
		return inferBatchNorm(l, x, ws)
	case *MaxPool3D:
		return inferMaxPool3D(l, x, ws)
	case *Conv3D:
		return inferConv3D(l, x, ws)
	}
	panic(fmt.Sprintf("nn: layer %T has no inference path", l))
}

// ForwardInfer runs Infer at float64.
func (s *Sequential) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	return Infer(s, x, ws)
}

// ForwardInfer runs Infer at float64.
func (d *Dense) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor { return Infer(d, x, ws) }

// ForwardInfer runs Infer at float64.
func (a *Activation) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	return Infer(a, x, ws)
}

// ForwardInfer runs Infer at float64.
func (d *Dropout) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	return Infer(d, x, ws)
}

// ForwardInfer runs Infer at float64.
func (f *Flatten) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	return Infer(f, x, ws)
}

// ForwardInfer runs Infer at float64.
func (b *BatchNorm) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	return Infer(b, x, ws)
}

// ForwardInfer runs Infer at float64.
func (m *MaxPool3D) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	return Infer(m, x, ws)
}

// ForwardInfer runs Infer at float64.
func (c *Conv3D) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor { return Infer(c, x, ws) }

// AddBias adds bias to every row of the rank-2 y in place.
func AddBias[T tensor.Float](y *tensor.Dense[T], bias []T) {
	for i := 0; i < y.Dim(0); i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// inferDense is y = x·Wᵀ + b via the packed panel kernel against the
// workspace-cached packing of Wᵀ.
func inferDense[T tensor.Float](d *Dense, x *tensor.Dense[T], ws *Workspace) *tensor.Dense[T] {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		panicShape("Dense", x, d.In)
	}
	b := BuffersOf[T](ws)
	y := b.Arena.GetUninit(x.Dim(0), d.Out)
	tensor.MatMulPackedInto(y, x, b.PackedTransposed(d.W.Value, d.Out, d.In))
	AddBias(y, b.Vec(d.B.Value))
	return y
}

func inferActivation[T tensor.Float](a *Activation, x *tensor.Dense[T], ws *Workspace) *tensor.Dense[T] {
	out := BuffersOf[T](ws).Arena.GetUninit(x.Shape...)
	switch a.Kind {
	case ActReLU:
		for i, v := range x.Data {
			if v > 0 {
				out.Data[i] = v
			} else {
				out.Data[i] = 0
			}
		}
	case ActLReLU:
		slope := T(a.Slope)
		for i, v := range x.Data {
			if v > 0 {
				out.Data[i] = v
			} else {
				out.Data[i] = slope * v
			}
		}
	case ActSELU:
		lambda := T(seluLambda)
		for i, v := range x.Data {
			if v > 0 {
				out.Data[i] = lambda * v
			} else {
				// The exponential runs in f64 (the stdlib has no
				// float32 exp) and narrows like every other op.
				out.Data[i] = T(seluLambda * seluAlpha * (math.Exp(float64(v)) - 1))
			}
		}
	default:
		panic("nn: unknown activation " + a.Kind)
	}
	return out
}

// bnFold is evaluation-mode BatchNorm folded to one multiply-add per
// element: scale = γ/√(var+ε), shift = β − mean·scale.
type bnFold[T tensor.Float] struct {
	scale, shift []T
}

// inferBatchNorm is evaluation-mode normalization with the running
// statistics. The formula is the one width-specific step of the
// layer: f64 keeps Forward(x, false)'s unfolded form bit for bit, f32
// runs the cached fold (algebraically identical, differing only in
// rounding).
func inferBatchNorm[T tensor.Float](b *BatchNorm, x *tensor.Dense[T], ws *Workspace) *tensor.Dense[T] {
	if x.Rank() != 2 || x.Dim(1) != b.F {
		panic("nn: BatchNorm expects [N, F] input matching layer width")
	}
	out := BuffersOf[T](ws).Arena.GetUninit(x.Shape...)
	switch x := any(x).(type) {
	case *tensor.F32:
		b.foldedInto(x, any(out).(*tensor.F32), BuffersOf[float32](ws))
	case *tensor.Tensor:
		b.unfoldedInto(x, any(out).(*tensor.Tensor))
	}
	return out
}

// unfoldedInto is the f64 leaf of inferBatchNorm: Forward(x, false)'s
// formula.
func (b *BatchNorm) unfoldedInto(x, out *tensor.Tensor) {
	for i := 0; i < x.Dim(0); i++ {
		xr, or := x.Row(i), out.Row(i)
		for j := 0; j < b.F; j++ {
			xh := (xr[j] - b.RunMean[j]) / math.Sqrt(b.RunVar[j]+b.Eps)
			or[j] = b.Gamma.Value.Data[j]*xh + b.Beta.Value.Data[j]
		}
	}
}

// foldedInto is the f32 leaf of inferBatchNorm: the cached fold, keyed
// by the frozen gamma tensor, folded in f64 and narrowed once.
func (b *BatchNorm) foldedInto(x, out *tensor.F32, buf *Buffers[float32]) {
	f, ok := buf.bn[b.Gamma.Value]
	if !ok {
		f = &bnFold[float32]{scale: make([]float32, b.F), shift: make([]float32, b.F)}
		for j := 0; j < b.F; j++ {
			s := b.Gamma.Value.Data[j] / math.Sqrt(b.RunVar[j]+b.Eps)
			f.scale[j] = float32(s)
			f.shift[j] = float32(b.Beta.Value.Data[j] - b.RunMean[j]*s)
		}
		buf.bn[b.Gamma.Value] = f
	}
	for i := 0; i < x.Dim(0); i++ {
		xr, or := x.Row(i), out.Row(i)
		for j := 0; j < b.F; j++ {
			or[j] = f.scale[j]*xr[j] + f.shift[j]
		}
	}
}

// inferMaxPool3D runs Forward's window argmax loops without recording
// the winners for Backward.
func inferMaxPool3D[T tensor.Float](m *MaxPool3D, x *tensor.Dense[T], ws *Workspace) *tensor.Dense[T] {
	n, c, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	k := m.K
	if d%k != 0 || h%k != 0 || w%k != 0 {
		panic("nn: MaxPool3D window does not divide grid")
	}
	od, oh, ow := d/k, h/k, w/k
	out := BuffersOf[T](ws).Arena.GetUninit(n, c, od, oh, ow)
	perChan := od * oh * ow
	for nc := 0; nc < n*c; nc++ {
		ni, ci := nc/c, nc%c
		oi := nc * perChan
		for zd := 0; zd < od; zd++ {
			for zh := 0; zh < oh; zh++ {
				for zw := 0; zw < ow; zw++ {
					var bestV T
					first := true
					for kd := 0; kd < k; kd++ {
						for kh := 0; kh < k; kh++ {
							for kw := 0; kw < k; kw++ {
								fi := ((((ni*c+ci)*d+zd*k+kd)*h + zh*k + kh) * w) + zw*k + kw
								if first || x.Data[fi] > bestV {
									bestV = x.Data[fi]
									first = false
								}
							}
						}
					}
					out.Data[oi] = bestV
					oi++
				}
			}
		}
	}
	return out
}

// inferConv3D is the convolution's inference forward: the same
// algorithm selection as Forward (direct reference loops, sparse
// scatter for cache-resident outputs, im2col GEMM tiles otherwise)
// with workspace-pooled scratch and the workspace-cached kernel
// transpose, and — for the scatter path — a position-major accumulator
// so every scatter write lands in one cache line instead of striding
// Out channel planes. Per-element accumulation order is identical to
// Forward, so f64 outputs are byte-identical. The selection is the
// same at both widths — including the 8-bytes-per-element scatter
// threshold — so a layer shape runs one algorithm at either precision.
func inferConv3D[T tensor.Float](c *Conv3D, x *tensor.Dense[T], ws *Workspace) *tensor.Dense[T] {
	if x.Rank() != 5 || x.Dim(1) != c.In {
		panic(fmt.Sprintf("nn: Conv3D expects [N,%d,D,H,W], got %v", c.In, x.Shape))
	}
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	k := c.K
	dhw := d * h * w
	ck3 := c.In * k * k * k
	buf := BuffersOf[T](ws)
	out := buf.Arena.GetUninit(n, c.Out, d, h, w)
	bias := buf.Vec(c.B.Value)
	if c.Direct {
		directInto(c, x, out, buf.Vec(c.W.Value), bias)
		return out
	}
	wt := buf.Transposed(c.W.Value, c.Out, ck3)
	if c.Out*dhw*8 <= scatterMaxBytes {
		scatterInfer(c, x, out, wt, bias, buf.Arena)
		return out
	}
	// Tile path: im2col patches are sparse (voxel occupancy), so the
	// zero-skip scalar kernel against the cached kernel transpose beats
	// the panel kernel — one data-dependent branch per patch value,
	// skipping a whole Out-wide row. The packed panel kernel is for the
	// dense x·Wᵀ layer products.
	tile := min(dhw, convTile)
	for b := 0; b < n; b++ {
		for lo := 0; lo < dhw; lo += tile {
			hi := min(lo+tile, dhw)
			rows := hi - lo
			ct := buf.Arena.GetUninit(rows, ck3) // Im2Col3D writes every element
			yt := buf.Arena.GetUninit(rows, c.Out)
			tensor.Im2Col3D(x, b, k, lo, hi, ct)
			// Seed every position with the bias, then accumulate the
			// patch GEMM on top (same term order as Forward).
			for r := 0; r < rows; r++ {
				copy(yt.Data[r*c.Out:(r+1)*c.Out], bias)
			}
			tensor.MatMulAcc(yt, ct, wt)
			for o := 0; o < c.Out; o++ {
				dst := out.Data[(b*c.Out+o)*dhw+lo : (b*c.Out+o)*dhw+hi]
				for r := range dst {
					dst[r] = yt.Data[r*c.Out+o]
				}
			}
			buf.Arena.Put(yt)
			buf.Arena.Put(ct)
		}
	}
	return out
}

// scatterInfer is the pooled sparse-scatter forward. It accumulates
// into a position-major [DHW, Out] buffer — each nonzero voxel's
// kernel footprint updates Out contiguous values per position, one
// cache line, where forwardScatter strides Out channel planes — then
// transposes once into the [Out, D, H, W] output block. Grid-boundary
// clipping is hoisted out of the kernel loops (the surviving offsets
// run branch-free). The channel update per kernel offset is the
// kernel's width leaf: tensor.Axpy32 (SSE) at f32, the Go loop
// unrolled 8 lanes at a time for the production filter counts at f64.
// Lanes are independent accumulators, so both keep the scalar term
// order. Per-element term order matches
// forwardScatter exactly: for every output element, surviving terms
// arrive in ascending (ci, input-position) order.
func scatterInfer[T tensor.Float](c *Conv3D, x, out, wt *tensor.Dense[T], bias []T, arena *tensor.Arena[T]) {
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	k := c.K
	pad := k / 2
	dhw := d * h * w
	hw := h * w
	nOut := c.Out
	unroll8 := nOut%8 == 0
	posBuf := arena.GetUninit(dhw, nOut)
	pd := posBuf.Data
	wd := wt.Data
	var pd32, wd32 []float32
	if tensor.Is32[T]() {
		pd32, wd32 = tensor.As32(pd), tensor.As32(wd)
	}
	for b := 0; b < n; b++ {
		for pos := 0; pos < dhw; pos++ {
			copy(pd[pos*nOut:(pos+1)*nOut], bias)
		}
		for ci := 0; ci < c.In; ci++ {
			chBase := (b*c.In + ci) * dhw
			for ip, v := range x.Data[chBase : chBase+dhw] {
				if v == 0 {
					continue
				}
				id, rem := ip/hw, ip%hw
				ih, iw := rem/w, rem%w
				// Valid kernel ranges: zd = id+pad-kd must land in
				// [0, d), and likewise for the other axes.
				kdLo, kdHi := clipK(id, pad, d, k)
				khLo, khHi := clipK(ih, pad, h, k)
				kwLo, kwHi := clipK(iw, pad, w, k)
				for kd := kdLo; kd <= kdHi; kd++ {
					zd := id + pad - kd
					for kh := khLo; kh <= khHi; kh++ {
						zh := ih + pad - kh
						// zw walks down one position per kw step, so
						// both offsets advance by a constant stride.
						wOff := (((ci*k+kd)*k+kh)*k + kwLo) * nOut
						pOff := ((zd*h+zh)*w + iw + pad - kwLo) * nOut
						for kw := kwLo; kw <= kwHi; kw++ {
							switch {
							case tensor.Is32[T]():
								tensor.Axpy32(pd32[pOff:pOff+nOut:pOff+nOut], wd32[wOff:wOff+nOut], float32(v))
							case unroll8:
								for o := 0; o < nOut; o += 8 {
									dr := pd[pOff+o : pOff+o+8 : pOff+o+8]
									wr := wd[wOff+o : wOff+o+8 : wOff+o+8]
									dr[0] += wr[0] * v
									dr[1] += wr[1] * v
									dr[2] += wr[2] * v
									dr[3] += wr[3] * v
									dr[4] += wr[4] * v
									dr[5] += wr[5] * v
									dr[6] += wr[6] * v
									dr[7] += wr[7] * v
								}
							default:
								dst := pd[pOff : pOff+nOut : pOff+nOut]
								for o, wv := range wd[wOff : wOff+nOut] {
									dst[o] += wv * v
								}
							}
							wOff += nOut
							pOff -= nOut
						}
					}
				}
			}
		}
		outS := out.Data[b*nOut*dhw : (b+1)*nOut*dhw]
		for pos := 0; pos < dhw; pos++ {
			row := pd[pos*nOut : (pos+1)*nOut]
			for o, v := range row {
				outS[o*dhw+pos] = v
			}
		}
	}
	arena.Put(posBuf)
}

// clipK returns the inclusive kernel-offset range [lo, hi] for which
// the mirrored position i+pad-k stays inside [0, dim).
func clipK(i, pad, dim, k int) (lo, hi int) {
	lo, hi = i+pad-dim+1, i+pad
	if lo < 0 {
		lo = 0
	}
	if hi > k-1 {
		hi = k - 1
	}
	return lo, hi
}

// directInto is the serial reference convolution writing into a
// caller-owned output — forwardDirect's loops without the ParallelFor
// (rank goroutines are the inference parallelism) — over the flat
// kernel wf and bias at x's width.
func directInto[T tensor.Float](c *Conv3D, x, out *tensor.Dense[T], wf, bias []T) {
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	pad := c.K / 2
	k := c.K
	dhw := d * h * w
	for ni := 0; ni < n; ni++ {
		for co := 0; co < c.Out; co++ {
			oBase := (ni*c.Out + co) * dhw
			for zd := 0; zd < d; zd++ {
				for zh := 0; zh < h; zh++ {
					for zw := 0; zw < w; zw++ {
						s := bias[co]
						for ci := 0; ci < c.In; ci++ {
							for kd := 0; kd < k; kd++ {
								id := zd + kd - pad
								if id < 0 || id >= d {
									continue
								}
								for kh := 0; kh < k; kh++ {
									ih := zh + kh - pad
									if ih < 0 || ih >= h {
										continue
									}
									xBase := ((ni*c.In+ci)*d+id)*h + ih
									wBase := (((co*c.In+ci)*k+kd)*k + kh) * k
									xRow := x.Data[xBase*w : xBase*w+w]
									wRow := wf[wBase : wBase+k]
									for kw := 0; kw < k; kw++ {
										iw := zw + kw - pad
										if iw < 0 || iw >= w {
											continue
										}
										s += xRow[iw] * wRow[kw]
									}
								}
							}
						}
						out.Data[oBase+(zd*h+zh)*w+zw] = s
					}
				}
			}
		}
	}
}
