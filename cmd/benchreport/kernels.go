package main

// The -kernels mode records the performance trajectory of the
// screening engine's hot paths. For PR 6 that is precision: every row
// pairs the pinned float64 reference against the float32 fast path —
// the packed GEMM panel kernel, the lowered Conv3D forward, the full
// Coherent PredictBatch at repro and paper scale, and the distributed
// scoring job end to end — on identical shapes and weights, so the
// speedup column is the memory-traffic win of halving the element
// width plus the doubled lane count of the f32 SSE leaves. The
// Conv3DScatter rows time the scatter convolution alone at the conv1
// shapes the funnel benchmark scores. `make bench` archives the JSON
// form as BENCH_6.json. (BENCH_5.json, the PR-5 featurization-cache
// trajectory, stays committed as history; its RunJob/after-prefeature
// row — 541 poses/s — is the baseline the f64 RunJob row here chains
// from.)

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/libgen"
	"deepfusion/internal/nn"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

type benchRecord struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type kernelReport struct {
	PR         int                `json:"pr"`
	Note       string             `json:"note"`
	Benchmarks []benchRecord      `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
}

func record(name string, extra map[string]float64, fn func(b *testing.B)) benchRecord {
	// All pairs share one process; return the previous benchmark's dead
	// heap to the runtime so a 48^3-scale pair doesn't tax the next
	// record's GC on the single-core host.
	runtime.GC()
	r := testing.Benchmark(fn)
	return benchRecord{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Extra:       extra,
	}
}

func benchPoses(n int) []screen.Pose {
	var poses []screen.Pose
	for i := 0; len(poses) < n; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		target.Protease1.PlaceLigand(m)
		poses = append(poses, screen.Pose{CompoundID: fmt.Sprintf("%s_%d", m.Name, i), PoseRank: 0, Mol: m, VinaScore: -6})
	}
	return poses
}

// benchSamples featurizes n library poses at the given voxel options —
// the PredictBatch pairs score exactly this batch at both precisions.
func benchSamples(n int, vo featurize.VoxelOptions) []*fusion.Sample {
	gro := featurize.DefaultGraphOptions()
	var samples []*fusion.Sample
	for i := 0; len(samples) < n; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		target.Protease1.PlaceLigand(m)
		samples = append(samples, fusion.FeaturizeComplex(m.Name, target.Protease1, m, 0, vo, gro))
	}
	return samples
}

func runKernelReport() kernelReport {
	rep := kernelReport{
		PR: 6,
		Note: "float32 inference fast path: before = pinned f64 reference, after = f32 " +
			"(convert-once packed weights, f32 panel GEMM / conv scatter / im2col, " +
			"widen-at-output); identical shapes and weights, rank-fidelity pinned by the A/B harness",
		Speedups: map[string]float64{},
	}
	add := func(group string, before, after benchRecord) {
		rep.Benchmarks = append(rep.Benchmarks, before, after)
		rep.Speedups[group] = before.NsPerOp / after.NsPerOp
	}

	// Packed panel GEMM at a dense-layer shape big enough to spill the
	// cache: the B panel is where the element width shows up as pure
	// memory traffic.
	{
		const m64, k64, n64 = 8, 2048, 512
		rng := rand.New(rand.NewSource(61))
		a := tensor.New(m64, k64)
		bm := tensor.New(k64, n64)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range bm.Data {
			bm.Data[i] = rng.NormFloat64()
		}
		a32, bm32 := tensor.NewF32(m64, k64), tensor.NewF32(k64, n64)
		a32.CopyFrom64(a)
		bm32.CopyFrom64(bm)
		before := record("MatMulPacked/f64", nil, func(b *testing.B) { benchPacked(b, a, bm) })
		after := record("MatMulPacked/f32", nil, func(b *testing.B) { benchPacked(b, a32, bm32) })
		add("MatMulPacked", before, after)
	}

	// Lowered Conv3D forward at batch 8, 16 channels, 16^3 grid, 32
	// filters. Its 1 MiB position-major accumulator is under
	// scatterMaxBytes, so this pair runs the sparse-scatter path.
	{
		conv := nn.NewConv3D(rand.New(rand.NewSource(62)), 16, 32, 3)
		x := tensor.New(8, 16, 16, 16, 16)
		rng := rand.New(rand.NewSource(63))
		for i := range x.Data {
			if rng.Float64() < 0.2 {
				x.Data[i] = rng.NormFloat64()
			}
		}
		x32 := tensor.NewF32(x.Shape...)
		x32.CopyFrom64(x)
		ws := nn.NewWorkspace()
		before := record("Conv3DForward/f64", nil, func(b *testing.B) { benchConv(b, conv, x, ws) })
		after := record("Conv3DForward/f32", nil, func(b *testing.B) { benchConv(b, conv, x32, ws) })
		add("Conv3DForward", before, after)
	}

	// Conv3DScatter: the scatter convolution alone at the two conv1
	// shapes the funnel benchmark scores, on real featurized grids —
	// the funnel's (f64, batch 8, 8^3, 8 filters, k5) and the paper
	// grid's (f32, batch 2, 48^3, 32 filters, k5). Standalone rows, no
	// speedup pair.
	{
		conv1 := func(seed int64, filters int, vo featurize.VoxelOptions, batch int) (*nn.Conv3D, *tensor.Tensor) {
			samples := benchSamples(batch, vo)
			per := samples[0].Voxels.Len()
			x := tensor.New(append([]int{batch}, samples[0].Voxels.Shape...)...)
			for i, s := range samples {
				copy(x.Data[i*per:(i+1)*per], s.Voxels.Data)
			}
			return nn.NewConv3D(rand.New(rand.NewSource(seed)), vo.Channels(), filters, 5), x
		}
		conv, x := conv1(70, 8, featurize.DefaultVoxelOptions(), 8)
		ws := nn.NewWorkspace()
		rep.Benchmarks = append(rep.Benchmarks, record("Conv3DScatter/funnel-conv1/f64", nil,
			func(b *testing.B) { benchConv(b, conv, x, ws) }))
		conv, x = conv1(71, 32, featurize.PaperVoxelOptions(), 2)
		x32 := tensor.NewF32(x.Shape...)
		x32.CopyFrom64(x)
		rep.Benchmarks = append(rep.Benchmarks, record("Conv3DScatter/paper-conv1/f32", nil,
			func(b *testing.B) { benchConv(b, conv, x32, ws) }))
	}

	// PredictBatch: the whole Coherent Fusion forward (voxel head +
	// graph head + fusion trunk) at both scales. The repro pair (8^3
	// grid, 8/16 filters, batch 8) chains from the PR-4 PredictBatch
	// trajectory; the headline pair runs the paper's production shape
	// (48^3 voxel grid, 32/64 conv filters, 128 dense nodes), where
	// the grids spill every cache level and the halved element width
	// plus the 4-wide f32 scatter kernel show up as wall-clock.
	predictPair := func(group string, coh *fusion.Fusion, samples []*fusion.Sample) {
		out := make([]float64, len(samples))
		one := func(name string, p fusion.Precision) benchRecord {
			return record(name, nil, func(b *testing.B) {
				b.ReportAllocs()
				ws := fusion.NewWorkspaceFor(p)
				coh.PredictBatchInto(samples, ws, out) // warm packs and pools
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					coh.PredictBatchInto(samples, ws, out)
				}
			})
		}
		add(group, one(group+"/f64", fusion.PrecisionF64), one(group+"/f32", fusion.PrecisionF32))
	}
	{
		cnn := fusion.NewCNN3D(fusion.DefaultCNN3DConfig(), 64)
		sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), 65)
		coh := fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 66)
		predictPair("PredictBatchRepro", coh, benchSamples(8, featurize.DefaultVoxelOptions()))
	}
	{
		cfg := fusion.DefaultCNN3DConfig()
		cfg.Voxel = featurize.PaperVoxelOptions()
		cfg.ConvFilters1 = 32
		cfg.ConvFilters2 = 64
		cfg.DenseNodes = 128
		cnn := fusion.NewCNN3D(cfg, 67)
		sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), 68)
		coh := fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 69)
		predictPair("PredictBatch", coh, benchSamples(2, cfg.Voxel))
	}

	// RunJob: the distributed scoring job end to end at both engine
	// precisions. Same job shape as the PR-4/PR-5 trajectories (96
	// poses, 2 ranks, 2 loaders, batch 8), so the poses/s rows chain
	// across the committed BENCH_*.json artifacts.
	{
		cnn := fusion.NewCNN3D(fusion.DefaultCNN3DConfig(), 46)
		sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), 47)
		f := fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 48)
		poses := benchPoses(96)
		o := screen.DefaultJobOptions()
		o.Ranks = 2
		o.LoadersPerRank = 2
		o.BatchSize = 8
		posesPerSec := func(ns float64) float64 { return float64(len(poses)) / (ns / 1e9) }
		runJob := func(o screen.JobOptions) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := screen.RunJob(context.Background(), f, target.Protease1, poses, o); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		o32 := o
		o32.Precision = screen.PrecisionF32
		// A 2-rank job on a single core is scheduler-noise dominated
		// (isolated runs swing ±15%), so record the best of three — the
		// stable floor — rather than one draw per precision.
		best := func(name string, fn func(b *testing.B)) benchRecord {
			r := record(name, nil, fn)
			for i := 0; i < 2; i++ {
				if again := record(name, nil, fn); again.NsPerOp < r.NsPerOp {
					r = again
				}
			}
			r.Extra = map[string]float64{"poses/s": posesPerSec(r.NsPerOp)}
			return r
		}
		add("RunJob", best("RunJob/f64", runJob(o)), best("RunJob/f32", runJob(o32)))
	}
	return rep
}

func printKernelReport(rep kernelReport) {
	fmt.Printf("PR %d benchmark trajectory — %s\n\n", rep.PR, rep.Note)
	fmt.Printf("%-36s %14s %14s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, r := range rep.Benchmarks {
		fmt.Printf("%-36s %14.0f %14d %12d", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		for k, v := range r.Extra {
			fmt.Printf("  %s=%.1f", k, v)
		}
		fmt.Println()
	}
	fmt.Println()
	for _, g := range []string{"MatMulPacked", "Conv3DForward", "PredictBatchRepro", "PredictBatch", "RunJob"} {
		fmt.Printf("speedup %-20s %.2fx\n", g, rep.Speedups[g])
	}
}

// benchPacked times the packed panel GEMM c = a x B at a's width.
func benchPacked[T tensor.Float](b *testing.B, a, bm *tensor.Dense[T]) {
	b.ReportAllocs()
	var pb tensor.PackedB[T]
	pb.Pack(bm)
	c := tensor.NewFromShape[T]([]int{a.Dim(0), bm.Dim(1)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulPackedInto(c, a, &pb)
	}
}

// benchConv times one warm pooled Conv3D inference forward at x's
// width.
func benchConv[T tensor.Float](b *testing.B, conv *nn.Conv3D, x *tensor.Dense[T], ws *nn.Workspace) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		nn.Infer(conv, x, ws)
	}
}
