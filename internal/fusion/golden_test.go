package fusion

import (
	"fmt"
	"math"
	"testing"
)

// f32GoldenBits are the float32 bit patterns of the f32
// PredictBatchInto scores on goldenF32Fixture, recorded from the f32
// engine. The tolerance tests only bound f32 against f64; these pin
// the f32 rounding itself, so a refactor of the f32 kernels that
// reorders a sum or moves a narrowing point fails here even when it
// stays inside the tolerance.
var f32GoldenBits = map[string][]string{
	"CNN3D":    {"be721378", "be76f424", "be20868a", "be4c1c48", "bde171e2", "be1dec33", "be24c3e1", "be325e16"},
	"SGCNN":    {"beaf7c7b", "bef40965", "bec2ffff", "bddbfbbb", "beac1b29", "bec0d4e6", "be7555da", "bf1b1f4a"},
	"Late":     {"be94431c", "beb7c1bc", "be89a1a2", "be1d0d13", "be6477a2", "be87e580", "be4d0cde", "bec7b6d0"},
	"Mid":      {"bfbf6e5a", "3f5c8974", "3fe261fc", "bf186d3a", "bfdaf5b4", "4028a3b8", "3e35df84", "40371335"},
	"Coherent": {"bda99db0", "bdbe375b", "bdd64b8e", "bd912dfd", "bd576b91", "be002c84", "bd5d7079", "be076ceb"},
}

// goldenF32Fixture builds the seeded models the golden pins: a voxel
// head with both residuals and BatchNorm (folded BatchNorm, residual
// adds, SELU/ReLU), the default graph head, their late average, and
// Mid (residual SELU trunk) and Coherent (BatchNorm, leaky-ReLU trunk)
// fusion.
func goldenF32Fixture() []struct {
	name  string
	model interface {
		PredictBatchInto([]*Sample, *Workspace, []float64)
	}
} {
	cc := tinyCNNConfig()
	cc.Residual1, cc.BatchNorm = true, true
	cnn := NewCNN3D(cc, 81)
	sg := NewSGCNN(tinySGConfig(), 82)
	coh := DefaultCoherentConfig()
	coh.BatchNorm, coh.Activation = true, "lrelu"
	return []struct {
		name  string
		model interface {
			PredictBatchInto([]*Sample, *Workspace, []float64)
		}
	}{
		{"CNN3D", cnn},
		{"SGCNN", sg},
		{"Late", &LateFusion{CNN: cnn, SG: sg}},
		{"Mid", NewFusion(DefaultMidFusionConfig(), cnn, sg, 83)},
		{"Coherent", NewFusion(coh, cnn, sg, 84)},
	}
}

// TestPredictBatchIntoF32Golden pins the f32 scores of every model
// family bit for bit, at two batch geometries (one batch of 8, and
// batches of 3 with a ragged tail) that must agree with each other.
func TestPredictBatchIntoF32Golden(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:8])
	ws := NewWorkspaceFor(PrecisionF32)
	for _, m := range goldenF32Fixture() {
		got := make([]string, len(samples))
		out := make([]float64, len(samples))
		m.model.PredictBatchInto(samples, ws, out)
		for i, v := range out {
			got[i] = fmt.Sprintf("%08x", math.Float32bits(float32(v)))
		}
		for lo := 0; lo < len(samples); lo += 3 {
			hi := min(lo+3, len(samples))
			part := make([]float64, hi-lo)
			m.model.PredictBatchInto(samples[lo:hi], ws, part)
			for j, v := range part {
				if b := fmt.Sprintf("%08x", math.Float32bits(float32(v))); b != got[lo+j] {
					t.Errorf("%s sample %d: batch-of-3 bits %s != batch-of-8 bits %s", m.name, lo+j, b, got[lo+j])
				}
			}
		}
		want, ok := f32GoldenBits[m.name]
		if !ok {
			t.Errorf("%s: no golden recorded; got %q", m.name, got)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s sample %d: f32 bits %s, golden %s", m.name, i, got[i], want[i])
			}
		}
	}
}
