package main

import (
	"runtime"
	"time"

	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/screen"
)

// newScorer builds an untrained Coherent Fusion model from the
// workload seed. Inference cost does not depend on weight values, and
// training would swamp set-up time.
func newScorer(seed int64, cnnCfg fusion.CNN3DConfig) *fusion.Fusion {
	cnn := fusion.NewCNN3D(cnnCfg, seed*7+1)
	sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), seed*7+2)
	return fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, seed*7+3)
}

// cnnFLOPs is the dense floating-point operation count of one CNN3D
// forward pass for one pose, computed from the layer shapes: four
// same-padded convolutions (5³ then three 3³, two 2× pools) and the
// three dense layers. It ignores pooling and activations and any
// zeros the kernels skip, so GFLOP/s derived from it is computed, not
// counted.
func cnnFLOPs(c fusion.CNN3DConfig) float64 {
	g := float64(c.Voxel.GridSize)
	ch, f1, f2, d := float64(c.Voxel.Channels()), float64(c.ConvFilters1), float64(c.ConvFilters2), float64(c.DenseNodes)
	full, half, quarter := g*g*g, g*g*g/8, g*g*g/64
	conv := ch*f1*125*full + f1*f1*27*full + f1*f2*27*half + f2*f2*27*half
	dense := f2*quarter*d + d*d/2 + d/2
	return 2 * (conv + dense)
}

// layerTimes accumulates the serial featurize and inference replay.
type layerTimes struct {
	poses, batches               int
	featurize, infer             time.Duration
	cnn3d, sgcnn                 time.Duration
	allocsPerBatch, flopsPerPose float64
}

// replayFeaturizeInfer featurizes poses one at a time through the
// prefeature (as the engine's loaders do) and scores them in batches
// of bs with warm PredictBatchInto calls: the whole model, then each
// head alone. Each call is one span under parent.
func replayFeaturizeInfer(tr *tracer, op string, parent int, f *fusion.Fusion, pre *featurize.PocketPrefeature, poses []screen.Pose, bs int, prec fusion.Precision, lt *layerTimes) {
	ws := fusion.NewWorkspaceFor(prec)
	slots := make([]*fusion.Sample, bs)
	for i := range slots {
		slots[i] = &fusion.Sample{}
	}
	out := make([]float64, bs)
	warm := lt.batches == 0
	for lo := 0; lo < len(poses); lo += bs {
		hi := min(lo+bs, len(poses))
		batch := slots[:hi-lo]
		for j := range batch {
			p := poses[lo+j]
			lt.featurize += tr.timed("featurize", op, parent, func() {
				fusion.FeaturizeComplexWithPrefeature(batch[j], pre, p.CompoundID, p.Mol, 0)
			})
		}
		if warm {
			// The first batch fills the workspace pools, as every
			// rank's first batch does.
			f.PredictBatchInto(batch, ws, out[:len(batch)])
			f.CNN.PredictBatchInto(batch, ws, out[:len(batch)])
			f.SG.PredictBatchInto(batch, ws, out[:len(batch)])
			var m0, m1 runtime.MemStats
			const reps = 4
			runtime.ReadMemStats(&m0)
			for r := 0; r < reps; r++ {
				f.PredictBatchInto(batch, ws, out[:len(batch)])
			}
			runtime.ReadMemStats(&m1)
			lt.allocsPerBatch = float64(m1.Mallocs-m0.Mallocs) / reps
			warm = false
		}
		lt.infer += tr.timed("infer", op, parent, func() { f.PredictBatchInto(batch, ws, out[:len(batch)]) })
		lt.cnn3d += tr.timed("infer.cnn3d", op, parent, func() { f.CNN.PredictBatchInto(batch, ws, out[:len(batch)]) })
		lt.sgcnn += tr.timed("infer.sgcnn", op, parent, func() { f.SG.PredictBatchInto(batch, ws, out[:len(batch)]) })
		lt.poses += len(batch)
		lt.batches++
	}
	lt.flopsPerPose = cnnFLOPs(f.CNN.Cfg)
}

// put reports the featurize and infer layer metrics.
func (lt *layerTimes) put(rep *report) {
	if lt.poses == 0 {
		return
	}
	n := float64(lt.poses)
	rep.put("featurize.ms_per_pose", ms(lt.featurize)/n)
	rep.put("infer.ms_per_pose", ms(lt.infer)/n)
	rep.put("infer.cnn3d_ms_per_pose", ms(lt.cnn3d)/n)
	rep.put("infer.sgcnn_ms_per_pose", ms(lt.sgcnn)/n)
	rep.put("infer.allocs_per_batch", lt.allocsPerBatch)
	rep.put("infer.dense_gflops", lt.flopsPerPose*n/lt.cnn3d.Seconds()/1e9)
}
