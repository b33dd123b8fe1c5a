package graph

import (
	"deepfusion/internal/featurize"
	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// This file is the zero-allocation inference surface of the graph
// stages, following the nn package's Infer contract: one
// implementation per stage, generic over the element width. Outputs
// come from the workspace arena, weight matrices are multiplied
// through their once-per-workspace panel packings (converted to f32 at
// pack time on the fast path), and nothing is cached for Backward. At
// float64 outputs are byte-identical to the training Forward methods —
// same loops, same per-element term order. The gate nonlinearities
// keep the f64 branch structure and clamps at both widths; the
// exponential itself runs in f64 (stdlib) and narrows, like nn's SELU.

// InferProject is the inference-mode projection: x·Wᵀ + b into pooled
// buffers.
func InferProject[T tensor.Float](p *Project, x *tensor.Dense[T], ws *nn.Workspace) *tensor.Dense[T] {
	b := nn.BuffersOf[T](ws)
	out := b.Arena.GetUninit(x.Dim(0), p.Out)
	tensor.MatMulPackedInto(out, x, b.PackedTransposed(p.W.Value, p.Out, p.In))
	nn.AddBias(out, b.Vec(p.B.Value))
	return out
}

// InferGGConv runs the K gated message-passing steps of Forward with
// workspace-pooled step tensors and packed weight products, caching
// nothing.
func InferGGConv[T tensor.Float](g *GGConv, h *tensor.Dense[T], edges []featurize.Edge, ws *nn.Workspace) *tensor.Dense[T] {
	b := nn.BuffersOf[T](ws)
	a := b.Arena
	n := h.Dim(0)
	inDeg := a.Get(n)
	for _, e := range edges {
		inDeg.Data[e.To]++
	}
	wmsg := b.PackedTransposed(g.Wmsg.Value, g.H, g.H)
	uz := b.PackedTransposed(g.Uz.Value, g.H, g.H)
	wz := b.PackedTransposed(g.Wz.Value, g.H, g.H)
	uh := b.PackedTransposed(g.Uh.Value, g.H, g.H)
	wh := b.PackedTransposed(g.Wh.Value, g.H, g.H)
	bz := b.Vec(g.Bz.Value)
	bh := b.Vec(g.Bh.Value)
	for step := 0; step < g.K; step++ {
		hw := a.GetUninit(n, g.H)
		tensor.MatMulPackedInto(hw, h, wmsg)
		m := a.Get(n, g.H)
		for _, e := range edges {
			src := hw.Row(e.From)
			dst := m.Row(e.To)
			inv := 1 / inDeg.Data[e.To]
			for j, v := range src {
				dst[j] += v * inv
			}
		}
		zpre := a.GetUninit(n, g.H)
		tensor.MatMulPackedInto(zpre, m, uz)
		tmp := a.GetUninit(n, g.H)
		tensor.MatMulPackedInto(tmp, h, wz)
		zpre.AddInPlace(tmp)
		htpre := a.GetUninit(n, g.H)
		tensor.MatMulPackedInto(htpre, m, uh)
		tensor.MatMulPackedInto(tmp, h, wh)
		htpre.AddInPlace(tmp)
		for i := 0; i < n; i++ {
			zr, hr := zpre.Row(i), htpre.Row(i)
			for j := 0; j < g.H; j++ {
				zr[j] = sigmoid(zr[j] + bz[j])
				hr[j] = tanh(hr[j] + bh[j])
			}
		}
		hOut := a.GetUninit(n, g.H)
		for i := range hOut.Data {
			hOut.Data[i] = (1-zpre.Data[i])*h.Data[i] + zpre.Data[i]*htpre.Data[i]
		}
		a.Put(tmp)
		a.Put(htpre)
		a.Put(zpre)
		a.Put(m)
		a.Put(hw)
		h = hOut
	}
	return h
}

// InferGather is the inference-mode gated gather pooling: identical
// math to ForwardSegments into pooled buffers, with no state retained
// for Backward.
func InferGather[T tensor.Float](ga *Gather, h, x *tensor.Dense[T], segs []Segment, ws *nn.Workspace) *tensor.Dense[T] {
	b := nn.BuffersOf[T](ws)
	a := b.Arena
	nl := 0
	for _, s := range segs {
		nl += s.NumLigand
	}
	hx := a.GetUninit(nl, ga.HIn+ga.XIn)
	hl := a.GetUninit(nl, ga.HIn)
	r := 0
	for _, s := range segs {
		for i := 0; i < s.NumLigand; i++ {
			copy(hx.Row(r)[:ga.HIn], h.Row(s.Start+i))
			copy(hx.Row(r)[ga.HIn:], x.Row(s.Start+i))
			copy(hl.Row(r), h.Row(s.Start+i))
			r++
		}
	}
	gate := a.GetUninit(nl, ga.Out)
	tensor.MatMulPackedInto(gate, hx, b.PackedTransposed(ga.Wg.Value, ga.Out, ga.HIn+ga.XIn))
	th := a.GetUninit(nl, ga.Out)
	tensor.MatMulPackedInto(th, hl, b.PackedTransposed(ga.Wo.Value, ga.Out, ga.HIn))
	bg := b.Vec(ga.Bg.Value)
	bo := b.Vec(ga.Bo.Value)
	out := a.Get(len(segs), ga.Out)
	r = 0
	for i, s := range segs {
		dst := out.Row(i)
		for l := 0; l < s.NumLigand; l++ {
			gr, tr := gate.Row(r), th.Row(r)
			for j := 0; j < ga.Out; j++ {
				gr[j] = sigmoid(gr[j] + bg[j])
				tr[j] = tanh(tr[j] + bo[j])
				dst[j] += gr[j] * tr[j]
			}
			r++
		}
	}
	a.Put(th)
	a.Put(gate)
	a.Put(hl)
	a.Put(hx)
	return out
}

// ForwardInfer runs InferProject at float64.
func (p *Project) ForwardInfer(x *tensor.Tensor, ws *nn.Workspace) *tensor.Tensor {
	return InferProject(p, x, ws)
}

// ForwardInfer runs InferGGConv at float64.
func (g *GGConv) ForwardInfer(h *tensor.Tensor, edges []featurize.Edge, ws *nn.Workspace) *tensor.Tensor {
	return InferGGConv(g, h, edges, ws)
}

// ForwardSegmentsInfer runs InferGather at float64.
func (ga *Gather) ForwardSegmentsInfer(h, x *tensor.Tensor, segs []Segment, ws *nn.Workspace) *tensor.Tensor {
	return InferGather(ga, h, x, segs, ws)
}
