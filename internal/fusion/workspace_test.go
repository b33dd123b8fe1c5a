package fusion

import (
	"fmt"
	"math"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/pdbbind"
)

// TestPredictBatchIntoByteIdentical is the golden guarantee of the
// pooled engine: for every model family and batch size, a pooled
// PredictBatchInto over a (dirty, reused) workspace must reproduce the
// allocating PredictBatch bit for bit. It runs at the tiny config's
// 4/6 conv filters and at DefaultCNN3DConfig's 8/16, the filter counts
// the screening funnel scores with.
func TestPredictBatchIntoByteIdentical(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:8])
	prod, def := tinyCNNConfig(), DefaultCNN3DConfig()
	prod.ConvFilters1, prod.ConvFilters2 = def.ConvFilters1, def.ConvFilters2
	for _, cfg := range []CNN3DConfig{tinyCNNConfig(), prod} {
		t.Run(fmt.Sprintf("filters=%d/%d", cfg.ConvFilters1, cfg.ConvFilters2), func(t *testing.T) {
			checkPredictBatchIntoByteIdentical(t, cfg, samples)
		})
	}
}

func checkPredictBatchIntoByteIdentical(t *testing.T, cfg CNN3DConfig, samples []*Sample) {
	cnn := NewCNN3D(cfg, 91)
	sg := NewSGCNN(tinySGConfig(), 92)
	late := &LateFusion{CNN: cnn, SG: sg}
	mid := NewFusion(DefaultMidFusionConfig(), cnn, sg, 93)
	coh := NewFusion(DefaultCoherentConfig(), cnn, sg, 94)

	ws := NewWorkspace() // one workspace shared across families and batches
	models := []struct {
		name  string
		batch func(ss []*Sample) []float64
		into  func(ss []*Sample, out []float64)
	}{
		{"CNN3D", cnn.PredictBatch, func(ss []*Sample, out []float64) { cnn.PredictBatchInto(ss, ws, out) }},
		{"SGCNN", sg.PredictBatch, func(ss []*Sample, out []float64) { sg.PredictBatchInto(ss, ws, out) }},
		{"Late", late.PredictBatch, func(ss []*Sample, out []float64) { late.PredictBatchInto(ss, ws, out) }},
		{"Mid", mid.PredictBatch, func(ss []*Sample, out []float64) { mid.PredictBatchInto(ss, ws, out) }},
		{"Coherent", coh.PredictBatch, func(ss []*Sample, out []float64) { coh.PredictBatchInto(ss, ws, out) }},
	}
	for _, m := range models {
		for _, bs := range []int{1, 3, 8} {
			for lo := 0; lo < len(samples); lo += bs {
				hi := lo + bs
				if hi > len(samples) {
					hi = len(samples)
				}
				want := m.batch(samples[lo:hi])
				got := make([]float64, hi-lo)
				m.into(samples[lo:hi], got)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s: batch size %d sample %d: pooled %v != allocating %v",
							m.name, bs, lo+j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestWorkspaceInterleavedScorersNoLeakage guards against cross-batch
// buffer leakage: two different models alternate batches over ONE
// workspace, and every result must equal the fresh-allocation path.
// Stale data surviving a Reset, a packed-weight cache collision, or a
// buffer handed to two tensors would all break the equality.
func TestWorkspaceInterleavedScorersNoLeakage(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:8])
	cnnA := NewCNN3D(tinyCNNConfig(), 31)
	sgA := NewSGCNN(tinySGConfig(), 32)
	a := NewFusion(DefaultCoherentConfig(), cnnA, sgA, 33)
	cnnB := NewCNN3D(tinyCNNConfig(), 41)
	sgB := NewSGCNN(tinySGConfig(), 42)
	b := NewFusion(DefaultMidFusionConfig(), cnnB, sgB, 43)

	ws := NewWorkspace()
	out := make([]float64, len(samples))
	for round := 0; round < 3; round++ {
		for bi, m := range []*Fusion{a, b} {
			// Vary batch geometry across rounds to stress the size classes.
			bs := 2 + round*2 + bi
			for lo := 0; lo < len(samples); lo += bs {
				hi := lo + bs
				if hi > len(samples) {
					hi = len(samples)
				}
				m.PredictBatchInto(samples[lo:hi], ws, out[lo:hi])
				want := m.PredictBatch(samples[lo:hi])
				for j := range want {
					if out[lo+j] != want[j] {
						t.Fatalf("round %d model %d batch [%d,%d) sample %d: interleaved %v != fresh %v",
							round, bi, lo, hi, lo+j, out[lo+j], want[j])
					}
				}
			}
		}
	}
}

// TestPredictBatchIntoZeroAlloc pins the tentpole at both precisions:
// a warm steady-state batch through the full Coherent Fusion stack
// (both heads, fusion layers) performs zero heap allocations.
func TestPredictBatchIntoZeroAlloc(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:8])
	cnn := NewCNN3D(tinyCNNConfig(), 51)
	sg := NewSGCNN(tinySGConfig(), 52)
	f := NewFusion(DefaultCoherentConfig(), cnn, sg, 53)
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		t.Run(string(p), func(t *testing.T) {
			ws := NewWorkspaceFor(p)
			out := make([]float64, len(samples))
			run := func() { f.PredictBatchInto(samples, ws, out) }
			for i := 0; i < 3; i++ {
				run()
			}
			if avg := testing.AllocsPerRun(50, run); avg != 0 {
				t.Fatalf("warm %s PredictBatchInto allocates %.1f times per run, want 0", p, avg)
			}
		})
	}
}

// TestFeaturizeComplexWithPrefeatureMatchesFresh pins the cached
// loader path at the Sample level: featurizing through a shared pocket
// prefeature into a recycled slot — including a slot previously used
// by the uncached path, and across two different pockets' prefeatures
// — equals a fresh FeaturizeComplex bit-for-bit.
func TestFeaturizeComplexWithPrefeatureMatchesFresh(t *testing.T) {
	ds := dataset(t)
	vo := tinyCNNConfig().Voxel
	gro := tinySGConfig().Graph
	c1, c2, c3 := ds.Core[0], ds.Core[1], ds.Core[2]
	pre1 := featurize.NewPocketPrefeature(c1.Pocket, vo, gro)

	// Start the slot on the uncached path, then move it through the
	// prefeature path — the slot must detect the foreign grid.
	slot := FeaturizeComplexInto(nil, c3.ID, c3.Pocket, c3.Mol, 3, vo, gro)
	steps := []struct {
		pre *featurize.PocketPrefeature
		c   *pdbbind.Complex
	}{
		{pre1, c1},
		{pre1, c2},
		{featurize.NewPocketPrefeature(c3.Pocket, vo, gro), c3},
		{pre1, c1},
	}
	for i, st := range steps {
		slot = FeaturizeComplexWithPrefeature(slot, st.pre, st.c.ID, st.c.Mol, float64(i))
		want := FeaturizeComplex(st.c.ID, st.c.Pocket, st.c.Mol, float64(i), vo, gro)
		if slot.ID != want.ID || slot.Label != want.Label || slot.Pocket != want.Pocket {
			t.Fatalf("step %d identity: got %s/%v want %s/%v", i, slot.ID, slot.Label, want.ID, want.Label)
		}
		for j := range want.Voxels.Data {
			if slot.Voxels.Data[j] != want.Voxels.Data[j] {
				t.Fatalf("step %d: voxel %d differs from fresh featurization", i, j)
			}
		}
		if slot.Graph.NumNodes() != want.Graph.NumNodes() ||
			len(slot.Graph.Covalent) != len(want.Graph.Covalent) ||
			len(slot.Graph.NonCov) != len(want.Graph.NonCov) {
			t.Fatalf("step %d: graph geometry differs from fresh featurization", i)
		}
		for j := range want.Graph.Nodes.Data {
			if slot.Graph.Nodes.Data[j] != want.Graph.Nodes.Data[j] {
				t.Fatalf("step %d: node feature %d differs from fresh featurization", i, j)
			}
		}
		for j, e := range want.Graph.NonCov {
			if slot.Graph.NonCov[j] != e {
				t.Fatalf("step %d: non-covalent edge %d differs from fresh featurization", i, j)
			}
		}
	}
}

// TestFeaturizeComplexIntoMatchesFresh pins slot recycling: a sample
// featurized into a dirty slot equals a freshly featurized one.
func TestFeaturizeComplexIntoMatchesFresh(t *testing.T) {
	ds := dataset(t)
	c1, c2 := ds.Core[0], ds.Core[1]
	vo := tinyCNNConfig().Voxel
	gro := tinySGConfig().Graph
	slot := FeaturizeComplexInto(nil, c1.ID, c1.Pocket, c1.Mol, 1, vo, gro)
	slot = FeaturizeComplexInto(slot, c2.ID, c2.Pocket, c2.Mol, 2, vo, gro)
	want := FeaturizeComplex(c2.ID, c2.Pocket, c2.Mol, 2, vo, gro)
	if slot.ID != want.ID || slot.Label != want.Label {
		t.Fatalf("identity: got %s/%v want %s/%v", slot.ID, slot.Label, want.ID, want.Label)
	}
	for i := range want.Voxels.Data {
		if slot.Voxels.Data[i] != want.Voxels.Data[i] {
			t.Fatalf("voxel %d differs after slot reuse", i)
		}
	}
	if slot.Graph.NumNodes() != want.Graph.NumNodes() ||
		len(slot.Graph.Covalent) != len(want.Graph.Covalent) ||
		len(slot.Graph.NonCov) != len(want.Graph.NonCov) {
		t.Fatalf("graph geometry differs after slot reuse")
	}
	for i := range want.Graph.Nodes.Data {
		if slot.Graph.Nodes.Data[i] != want.Graph.Nodes.Data[i] {
			t.Fatalf("node feature %d differs after slot reuse", i)
		}
	}
}

// TestPredictBatchInto32Tolerance pins the f32 fast path's
// per-pose accumulation error against the f64 reference at ≤1e-4
// relative, for every model family and batch geometry — the explicit
// numeric contract of the precision knob (rank fidelity on top of
// this is pinned by the engine-level A/B harness).
func TestPredictBatchInto32Tolerance(t *testing.T) {
	const tol = 1e-4
	ds := dataset(t)
	samples := featurized(t, ds.Core[:8])
	cnn := NewCNN3D(tinyCNNConfig(), 91)
	sg := NewSGCNN(tinySGConfig(), 92)
	late := &LateFusion{CNN: cnn, SG: sg}
	mid := NewFusion(DefaultMidFusionConfig(), cnn, sg, 93)
	coh := NewFusion(DefaultCoherentConfig(), cnn, sg, 94)

	ws64 := NewWorkspaceFor(PrecisionF64)
	ws32 := NewWorkspaceFor(PrecisionF32)
	if ws32.Precision() != PrecisionF32 {
		t.Fatalf("workspace precision = %q, want f32", ws32.Precision())
	}
	models := []struct {
		name string
		into func(ss []*Sample, ws *Workspace, out []float64)
	}{
		{"CNN3D", func(ss []*Sample, ws *Workspace, out []float64) { cnn.PredictBatchInto(ss, ws, out) }},
		{"SGCNN", func(ss []*Sample, ws *Workspace, out []float64) { sg.PredictBatchInto(ss, ws, out) }},
		{"Late", func(ss []*Sample, ws *Workspace, out []float64) { late.PredictBatchInto(ss, ws, out) }},
		{"Mid", func(ss []*Sample, ws *Workspace, out []float64) { mid.PredictBatchInto(ss, ws, out) }},
		{"Coherent", func(ss []*Sample, ws *Workspace, out []float64) { coh.PredictBatchInto(ss, ws, out) }},
	}
	for _, m := range models {
		for _, bs := range []int{1, 3, 8} {
			for lo := 0; lo < len(samples); lo += bs {
				hi := lo + bs
				if hi > len(samples) {
					hi = len(samples)
				}
				want := make([]float64, hi-lo)
				got := make([]float64, hi-lo)
				m.into(samples[lo:hi], ws64, want)
				m.into(samples[lo:hi], ws32, got)
				for j := range got {
					den := math.Abs(want[j])
					if den < 1 {
						den = 1
					}
					if e := math.Abs(got[j]-want[j]) / den; e > tol {
						t.Fatalf("%s: batch size %d sample %d: f32 %v vs f64 %v (rel err %g > %g)",
							m.name, bs, lo+j, got[j], want[j], e, tol)
					}
				}
			}
		}
	}
}

// TestPrecisionValidate covers the knob's normalization and rejection.
func TestPrecisionValidate(t *testing.T) {
	if got := Precision("").Normalize(); got != PrecisionF64 {
		t.Fatalf("Normalize(\"\") = %q, want f64", got)
	}
	for _, p := range []Precision{"", "f32", "f64"} {
		if err := p.Validate(); err != nil {
			t.Fatalf("Validate(%q) = %v", p, err)
		}
	}
	if err := Precision("f16").Validate(); err == nil {
		t.Fatal("Validate(\"f16\") accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorkspaceFor(\"bad\") did not panic")
		}
	}()
	NewWorkspaceFor("bad")
}
