package fusion

import (
	"fmt"

	"deepfusion/internal/chem"
	"deepfusion/internal/featurize"
	"deepfusion/internal/graph"
	"deepfusion/internal/nn"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// This file is the zero-allocation batched-inference surface of the
// fusion models: every family gains PredictBatchInto, which scores a
// batch through workspace-pooled buffers and writes predictions into a
// caller-owned slice. After one warm-up batch, a steady-state call
// performs zero heap allocations, and f64 scores are byte-identical to
// PredictBatch — the allocating path survives unchanged as the
// training/reference engine and the golden baseline.

// Workspace owns the pooled buffers of one inference stream: the
// tensor arena and cached weight packings (via nn.Workspace) plus the
// batch-assembly scratch — disjoint-union edge lists and gather
// segments. The screening engine gives each rank one workspace, shared
// by every scorer replica the rank owns; each PredictBatchInto call
// recycles the previous call's buffers, so results must be copied out
// before the next call (PredictBatchInto's out slice satisfies this by
// construction).
//
// A Workspace is not safe for concurrent use, and its cached weight
// packings assume frozen weights: create it after training, which the
// screening engine does by cloning rank replicas from trained models.
type Workspace struct {
	nn        *nn.Workspace
	precision Precision
	cov       []featurize.Edge
	nc        []featurize.Edge
	segs      []graph.Segment
}

// NewWorkspace returns an empty inference workspace on the f64
// reference path.
func NewWorkspace() *Workspace { return NewWorkspaceFor(PrecisionF64) }

// NewWorkspaceFor returns an empty inference workspace running at the
// given precision: every PredictBatchInto/ScoreBatchInto call through
// it dispatches to that numeric width, so the engine selects the
// whole funnel's precision by constructing rank workspaces once. It
// panics on an unknown precision (Validate upstream for an error).
func NewWorkspaceFor(p Precision) *Workspace {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Workspace{nn: nn.NewWorkspace(), precision: p.Normalize()}
}

// Precision reports the numeric width this workspace dispatches to.
func (ws *Workspace) Precision() Precision { return ws.precision }

// Reset recycles the per-batch buffers; cached weight packings persist.
func (ws *Workspace) Reset() { ws.nn.Reset() }

// begin opens one PredictBatchInto call: it checks out against the
// batch, recycles the previous call's buffers and reports whether
// there is anything to score.
func (ws *Workspace) begin(samples []*Sample, out []float64) bool {
	if len(out) != len(samples) {
		panic(fmt.Sprintf("fusion: PredictBatchInto out length %d != batch size %d", len(out), len(samples)))
	}
	if len(samples) == 0 {
		return false
	}
	ws.Reset()
	return true
}

// The inference forwards below are generic over the element width T
// and shared by both precisions. Per-pose features stay float64
// (shared with the reference path and the prefeature caches) and
// convert exactly once per batch, at assembly time (tensor.From64:
// narrowing at f32, a copy at f64); scores widen back to float64 at
// the output boundary (emitScores), so Prediction and every consumer
// above the workspace are precision-blind. Each family's
// PredictBatchInto picks T once from the workspace's precision.

// stackVoxelsInfer assembles per-sample [C,G,G,G] grids into a pooled
// [B,C,G,G,G] batch tensor at width T — the inference counterpart of
// stackVoxels (no augmentation; inference never rotates).
func stackVoxelsInfer[T tensor.Float](ws *Workspace, samples []*Sample) *tensor.Dense[T] {
	s0 := samples[0].Voxels
	b := nn.BuffersOf[T](ws.nn).Arena.GetUninit(len(samples), s0.Dim(0), s0.Dim(1), s0.Dim(2), s0.Dim(3))
	per := s0.Len()
	for i, s := range samples {
		tensor.From64(b.Data[i*per:(i+1)*per], s.Voxels.Data)
	}
	return b
}

// unionSamples builds the disjoint union of the samples' complex
// graphs into pooled buffers at width T — the inference counterpart of
// unionGraphs, identical layout and edge order.
func unionSamples[T tensor.Float](ws *Workspace, samples []*Sample) (nodes *tensor.Dense[T], cov, nc []featurize.Edge, segs []graph.Segment) {
	totalNodes := 0
	for _, s := range samples {
		totalNodes += s.Graph.NumNodes()
	}
	const nf = featurize.NodeFeatures
	nodes = nn.BuffersOf[T](ws.nn).Arena.GetUninit(totalNodes, nf)
	ws.cov, ws.nc, ws.segs = ws.cov[:0], ws.nc[:0], ws.segs[:0]
	off := 0
	for _, s := range samples {
		g := s.Graph
		tensor.From64(nodes.Data[off*nf:(off+g.NumNodes())*nf], g.Nodes.Data)
		ws.segs = append(ws.segs, graph.Segment{Start: off, NumLigand: g.NumLigand})
		for _, e := range g.Covalent {
			ws.cov = append(ws.cov, featurize.Edge{From: e.From + off, To: e.To + off, Dist: e.Dist})
		}
		for _, e := range g.NonCov {
			ws.nc = append(ws.nc, featurize.Edge{From: e.From + off, To: e.To + off, Dist: e.Dist})
		}
		off += g.NumNodes()
	}
	return nodes, ws.cov, ws.nc, ws.segs
}

// addInfer is the pooled counterpart of tensor.Add for the residual
// connections.
func addInfer[T tensor.Float](ws *nn.Workspace, a, b *tensor.Dense[T]) *tensor.Dense[T] {
	if len(a.Data) != len(b.Data) {
		panic("fusion: addInfer length mismatch")
	}
	r := nn.BuffersOf[T](ws).Arena.GetUninit(a.Shape...)
	for i := range a.Data {
		r.Data[i] = a.Data[i] + b.Data[i]
	}
	return r
}

// emitScores widens a prediction column into the caller's float64 out
// slice — the single f32→f64 point of the fast path (a copy at f64).
func emitScores[T tensor.Float](out []float64, pred []T) {
	for i, v := range pred {
		out[i] = float64(v)
	}
}

// inferCNN3D is the pooled inference forward of the voxel head —
// Forward with train=false, stage for stage, into arena buffers.
func inferCNN3D[T tensor.Float](m *CNN3D, x *tensor.Dense[T], ws *nn.Workspace) (pred, latent *tensor.Dense[T]) {
	h := nn.Infer(m.act[0], nn.Infer(m.conv1, x, ws), ws)
	h2 := nn.Infer(m.act[1], nn.Infer(m.conv2, h, ws), ws)
	if m.Cfg.Residual1 {
		h2 = addInfer(ws, h2, h)
	}
	h2 = nn.Infer(m.pool1, h2, ws)
	h3 := nn.Infer(m.act[2], nn.Infer(m.conv3, h2, ws), ws)
	h4 := nn.Infer(m.act[3], nn.Infer(m.conv4, h3, ws), ws)
	if m.Cfg.Residual2 {
		h4 = addInfer(ws, h4, h3)
	}
	h4 = nn.Infer(m.pool2, h4, ws)
	f := nn.Infer(m.flat, h4, ws)
	// drop1/drop2 are the identity at inference.
	d1 := nn.Infer(m.fc1, f, ws)
	if m.bn != nil {
		d1 = nn.Infer(m.bn, d1, ws)
	}
	d1 = nn.Infer(m.act[4], d1, ws)
	latent = nn.Infer(m.act[5], nn.Infer(m.fc2, d1, ws), ws)
	pred = nn.Infer(m.out, latent, ws)
	return pred, latent
}

// inferSGCNN is the pooled inference forward of the graph head over
// the disjoint union of the samples' graphs.
func inferSGCNN[T tensor.Float](m *SGCNN, samples []*Sample, ws *Workspace) (pred, latent *tensor.Dense[T]) {
	nodes, cov, nc, segs := unionSamples[T](ws, samples)
	h := graph.InferProject(m.proj, nodes, ws.nn)
	h = graph.InferGGConv(m.covConv, h, cov, ws.nn)
	h = graph.InferProject(m.bridge, h, ws.nn)
	h = graph.InferGGConv(m.ncConv, h, nc, ws.nn)
	latent = graph.InferGather(m.gather, h, nodes, segs, ws.nn)
	y := nn.Infer(m.act1, nn.Infer(m.d1, latent, ws.nn), ws.nn)
	y = nn.Infer(m.act2, nn.Infer(m.d2, y, ws.nn), ws.nn)
	pred = nn.Infer(m.out, y, ws.nn)
	return pred, latent
}

// predictCNN3D is CNN3D.PredictBatchInto at width T.
func predictCNN3D[T tensor.Float](m *CNN3D, samples []*Sample, ws *Workspace, out []float64) {
	pred, _ := inferCNN3D(m, stackVoxelsInfer[T](ws, samples), ws.nn)
	emitScores(out, pred.Data)
}

// predictSGCNN is SGCNN.PredictBatchInto at width T.
func predictSGCNN[T tensor.Float](m *SGCNN, samples []*Sample, ws *Workspace, out []float64) {
	pred, _ := inferSGCNN[T](m, samples, ws)
	emitScores(out, pred.Data)
}

// predictLate is LateFusion.PredictBatchInto at width T: the head
// average runs at T too, widening only the final score.
func predictLate[T tensor.Float](l *LateFusion, samples []*Sample, ws *Workspace, out []float64) {
	cnnPred, _ := inferCNN3D(l.CNN, stackVoxelsInfer[T](ws, samples), ws.nn)
	sgPred, _ := inferSGCNN[T](l.SG, samples, ws)
	for i := range out {
		out[i] = float64((cnnPred.Data[i] + sgPred.Data[i]) / 2)
	}
}

// predictFusion is Fusion.PredictBatchInto (Mid-level and Coherent
// fusion) at width T.
func predictFusion[T tensor.Float](f *Fusion, samples []*Sample, ws *Workspace, out []float64) {
	_, cnnLat := inferCNN3D(f.CNN, stackVoxelsInfer[T](ws, samples), ws.nn)
	_, sgLat := inferSGCNN[T](f.SG, samples, ws)

	b := len(samples)
	concat := nn.BuffersOf[T](ws.nn).Arena.GetUninit(b, f.concatWidth)
	for i := 0; i < b; i++ {
		copy(concat.Row(i)[:f.cnnLatW], cnnLat.Row(i))
		copy(concat.Row(i)[f.cnnLatW:f.cnnLatW+f.sgLatW], sgLat.Row(i))
	}
	if f.msCNN != nil {
		mc := nn.Infer(f.msActC, nn.Infer(f.msCNN, cnnLat, ws.nn), ws.nn)
		ms := nn.Infer(f.msActS, nn.Infer(f.msSG, sgLat, ws.nn), ws.nn)
		off := f.cnnLatW + f.sgLatW
		for i := 0; i < b; i++ {
			copy(concat.Row(i)[off:off+f.msW], mc.Row(i))
			copy(concat.Row(i)[off+f.msW:], ms.Row(i))
		}
	}
	h := concat
	for i, l := range f.layers {
		prev := h
		h = nn.Infer(l, h, ws.nn)
		if f.bns[i] != nil {
			h = nn.Infer(f.bns[i], h, ws.nn)
		}
		h = nn.Infer(f.acts[i], h, ws.nn)
		// drops are the identity at inference.
		if f.Cfg.ResidualFusion && prev.Dim(1) == h.Dim(1) {
			h = addInfer(ws.nn, h, prev)
		}
	}
	emitScores(out, nn.Infer(f.out, h, ws.nn).Data)
}

// PredictBatchInto scores featurized samples through the pooled
// engine at the workspace's precision, writing one prediction per
// sample into out (which must have the batch's length). At f64 scores
// are byte-identical to PredictBatch; a warm workspace makes the call
// allocation-free at either precision.
func (m *CNN3D) PredictBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	if !ws.begin(samples, out) {
		return
	}
	if ws.precision == PrecisionF32 {
		predictCNN3D[float32](m, samples, ws, out)
		return
	}
	predictCNN3D[float64](m, samples, ws, out)
}

// PredictBatchInto scores featurized samples through the pooled graph
// engine; see CNN3D.PredictBatchInto for the contract.
func (m *SGCNN) PredictBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	if !ws.begin(samples, out) {
		return
	}
	if ws.precision == PrecisionF32 {
		predictSGCNN[float32](m, samples, ws, out)
		return
	}
	predictSGCNN[float64](m, samples, ws, out)
}

// PredictBatchInto evaluates both heads through the pooled engine and
// averages, like PredictBatch.
func (l *LateFusion) PredictBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	if !ws.begin(samples, out) {
		return
	}
	if ws.precision == PrecisionF32 {
		predictLate[float32](l, samples, ws, out)
		return
	}
	predictLate[float64](l, samples, ws, out)
}

// PredictBatchInto runs the pooled inference pass of the Mid-level /
// Coherent fusion stack; see CNN3D.PredictBatchInto for the contract.
func (f *Fusion) PredictBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	if !ws.begin(samples, out) {
		return
	}
	if ws.precision == PrecisionF32 {
		predictFusion[float32](f, samples, ws, out)
		return
	}
	predictFusion[float64](f, samples, ws, out)
}

// ScoreBatchInto implements the screening engine's pooled scoring
// handshake (screen.ScorerInto) for the voxel head.
func (m *CNN3D) ScoreBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	m.PredictBatchInto(samples, ws, out)
}

// ScoreBatchInto implements the pooled scoring handshake.
func (m *SGCNN) ScoreBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	m.PredictBatchInto(samples, ws, out)
}

// ScoreBatchInto implements the pooled scoring handshake.
func (l *LateFusion) ScoreBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	l.PredictBatchInto(samples, ws, out)
}

// ScoreBatchInto implements the pooled scoring handshake.
func (f *Fusion) ScoreBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	f.PredictBatchInto(samples, ws, out)
}

// FeaturizeComplexInto featurizes a posed complex into s, reusing its
// voxel grid and graph buffers (see featurize.VoxelizeInto and
// featurize.BuildGraphInto) — the screening loaders recycle pose slots
// through it. A nil s allocates a fresh sample. Results are identical
// to FeaturizeComplex.
func FeaturizeComplexInto(s *Sample, id string, p *target.Pocket, mol *chem.Mol, label float64, vo featurize.VoxelOptions, gro featurize.GraphOptions) *Sample {
	if s == nil {
		s = &Sample{}
	}
	s.ID, s.Pocket, s.Mol, s.Label = id, p, mol, label
	s.Voxels = featurize.VoxelizeInto(s.Voxels, p, mol, vo)
	s.voxState = featurize.VoxelSlotState{} // grid no longer holds a baseline
	s.Graph = featurize.BuildGraphInto(s.Graph, p, mol, gro)
	return s
}

// FeaturizeComplexWithPrefeature featurizes a posed complex into s
// through a shared target-invariant prefeature cache
// (featurize.PocketPrefeature): per-pose voxelization splats only the
// ligand over the cached pocket baseline, and graph construction
// copies the cached pocket node rows and finds pocket neighbors
// through the prefeature's cell list. Results are byte-identical to
// FeaturizeComplex with the prefeature's options; a warm slot
// allocates nothing. A nil s allocates a fresh sample.
func FeaturizeComplexWithPrefeature(s *Sample, pre *featurize.PocketPrefeature, id string, mol *chem.Mol, label float64) *Sample {
	if s == nil {
		s = &Sample{}
	}
	s.ID, s.Pocket, s.Mol, s.Label = id, pre.Pocket(), mol, label
	s.Voxels = pre.VoxelizeInto(s.Voxels, &s.voxState, mol)
	s.Graph = pre.BuildGraphInto(s.Graph, mol)
	return s
}
