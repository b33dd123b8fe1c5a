package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"deepfusion/internal/dock"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/libgen"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// paperCNN is the CNN3D at the paper's production shape: 48³ grid,
// 32/64 convolution filters, 128 dense nodes.
func paperCNN() fusion.CNN3DConfig {
	cfg := fusion.DefaultCNN3DConfig()
	cfg.Voxel = featurize.PaperVoxelOptions()
	cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseNodes = 32, 64, 128
	return cfg
}

// rescoreJob is the rescoring job shape: f32, 2 ranks × 1 loader,
// batch 8.
func rescoreJob() screen.JobOptions {
	o := screen.DefaultJobOptions()
	o.Ranks, o.LoadersPerRank, o.BatchSize = 2, 1, 8
	o.Precision = screen.PrecisionF32
	return o
}

// placedPoses draws n distinct library compounds from the seed,
// prepares them and places each in the pocket: one pose per compound.
func placedPoses(seed int64, tgt *target.Pocket, n int) []screen.Pose {
	rng := rand.New(rand.NewSource(seed))
	libs := libgen.All()
	seen := map[string]bool{}
	var poses []screen.Pose
	for len(poses) < n {
		lib := libs[rng.Intn(len(libs))]
		i := rng.Intn(lib.Size)
		id := lib.ID(i)
		if seen[id] {
			continue
		}
		m, err := lib.Mol(i)
		if err != nil {
			continue
		}
		seen[id] = true
		tgt.PlaceLigand(m)
		poses = append(poses, screen.Pose{CompoundID: id, Mol: m, VinaScore: dock.VinaScore(tgt, m)})
	}
	return poses
}

// rescoreSetup builds the model and runs one warm-up job over one
// batch per rank, setupRepeats times; setup_s is the median. The last
// model is kept.
func rescoreSetup(ctx context.Context, o options, tgt *target.Pocket, pool []screen.Pose, job screen.JobOptions) (*fusion.Fusion, float64, error) {
	cnnCfg := fusion.DefaultCNN3DConfig()
	if o.size.paperGrid {
		cnnCfg = paperCNN()
	}
	warm := pool[:min(len(pool), job.Ranks*job.BatchSize)]
	var f *fusion.Fusion
	var setup []float64
	for i := 0; i < o.size.setupRepeats; i++ {
		f = nil
		runtime.GC() // the previous model's memory is not part of this set-up
		t0 := time.Now()
		f = newScorer(o.seed, cnnCfg)
		if _, err := screen.RunJob(ctx, f, tgt, warm, job); err != nil {
			return nil, 0, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	return f, median(setup), nil
}

// runRescore scores fixed-size jobs of pre-placed poses for the time
// budget (or makes the traced run), then checks the scores.
func runRescore(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	// One target for every seed: the seed varies the compounds only, so
	// the pocket's share of the sparse grid stays fixed.
	tgt := target.Protease1
	job := rescoreJob()
	n := o.size.rescorePoses
	pool := placedPoses(o.seed, tgt, o.size.rescorePool)
	f, setup, err := rescoreSetup(ctx, o, tgt, pool, job)
	if err != nil {
		return rep, err
	}
	if o.trace {
		return rep, traceRescore(ctx, o, rep, f, tgt, pool, job)
	}
	var results [][]screen.Prediction
	var walls []float64
	start := time.Now()
	for k := 0; k < 2 || time.Since(start).Seconds() < o.seconds; k++ {
		lo := (k * n) % len(pool)
		t0 := time.Now()
		preds, err := screen.RunJob(ctx, f, tgt, pool[lo:lo+n], job)
		d := time.Since(t0)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return rep, fmt.Errorf("job %d: %w", k, err)
		}
		results = append(results, preds)
		walls = append(walls, ms(d))
		fmt.Fprintf(os.Stderr, "job %d: %d poses in %.0f ms\n", k, n, ms(d))
	}
	if err := checkRescore(ctx, f, tgt, pool, n, job, results); err != nil {
		return rep, err
	}
	var rates []float64
	for _, w := range walls {
		rates = append(rates, float64(n)/(w/1000))
	}
	tl, pct := tail(walls)
	fmt.Fprintf(os.Stderr, "latency: %d jobs, tail p%.1f\n", len(walls), pct)
	rep.put("setup_s", setup)
	rep.put("compounds_per_s", median(rates))
	rep.put("poses_per_s", median(rates))
	rep.put("latency_p50_ms", median(walls))
	rep.put("latency_tail_ms", tl)
	return rep, nil
}

// precisionTolerance is the relative f32-vs-f64 tolerance of the
// engine's precision A/B harness.
const precisionTolerance = 1e-4

// checkRescore is the rescoring gate: every job returns each of its
// poses once with a finite score; jobs over the same poses agree
// bitwise; and one batch scored at f32 is within precisionTolerance
// relative of the same batch scored at f64.
func checkRescore(ctx context.Context, f *fusion.Fusion, tgt *target.Pocket, pool []screen.Pose, n int, job screen.JobOptions, results [][]screen.Prediction) error {
	first := map[int][]screen.Prediction{}
	for k, got := range results {
		lo := (k * n) % len(pool)
		if prev, ok := first[lo]; ok {
			if err := compareExact(got, prev); err != nil {
				return fmt.Errorf("job %d rescored its poses differently: %w", k, err)
			}
			continue
		}
		first[lo] = got
		if err := sameKeys(got, tgt.Name, pool[lo:lo+n]); err != nil {
			return fmt.Errorf("job %d: %w", k, err)
		}
		for _, p := range got {
			if math.IsNaN(p.Fusion) || math.IsInf(p.Fusion, 0) {
				return fmt.Errorf("job %d: pose %v scored %v", k, keyOf(p), p.Fusion)
			}
		}
	}
	ref := job
	ref.Precision = screen.PrecisionF64
	ref.Ranks = 1 // one f64 workspace: the reference's memory stays under the job's
	batch := pool[:job.BatchSize]
	want, err := screen.RunJob(ctx, f, tgt, batch, ref)
	if err != nil {
		return err
	}
	var got []screen.Prediction
	for _, p := range first[0] {
		if p.PoseRank == 0 && containsPose(batch, p.CompoundID) {
			got = append(got, p)
		}
	}
	if err := compareRelative(got, want, precisionTolerance); err != nil {
		return fmt.Errorf("f32 against f64: %w", err)
	}
	return nil
}

// sameKeys checks that preds hold exactly one prediction per pose.
func sameKeys(preds []screen.Prediction, tgt string, poses []screen.Pose) error {
	want := map[poseKey]bool{}
	for _, p := range poses {
		want[poseKey{tgt, p.CompoundID, p.PoseRank}] = true
	}
	seen := map[poseKey]bool{}
	for _, p := range preds {
		k := keyOf(p)
		if !want[k] || seen[k] {
			return fmt.Errorf("pose %v is not one of the job's poses or appears twice", k)
		}
		seen[k] = true
	}
	if len(seen) != len(want) {
		return fmt.Errorf("%d of %d poses missing", len(want)-len(seen), len(want))
	}
	return nil
}

func containsPose(poses []screen.Pose, id string) bool {
	for _, p := range poses {
		if p.CompoundID == id {
			return true
		}
	}
	return false
}

// traceRescore is the rescoring traced run: two jobs untraced and two
// inside a span (the difference is the tracing overhead), the
// prefeature build, a single-batch job, and serial featurization and
// warm PredictBatchInto over two batches of the same poses.
func traceRescore(ctx context.Context, o options, rep *report, f *fusion.Fusion, tgt *target.Pocket, pool []screen.Pose, job screen.JobOptions) error {
	n := o.size.rescorePoses
	poses := pool[:n]
	// Untraced, traced, traced, untraced: the order cancels a linear
	// drift between the two halves of the overhead measurement.
	tr := newTracer()
	var plainT, tracedT time.Duration
	var jobT time.Duration
	var first []screen.Prediction
	for i, traced := range []bool{false, true, true, false} {
		var preds []screen.Prediction
		var err error
		t0 := time.Now()
		if traced {
			d := tr.timed("screen.job", fmt.Sprintf("job%d", i), 0, func() { preds, err = screen.RunJob(ctx, f, tgt, poses, job) })
			tracedT += d
			jobT = d
		} else {
			preds, err = screen.RunJob(ctx, f, tgt, poses, job)
			plainT += time.Since(t0)
		}
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return err
		}
		if first == nil {
			first = preds
		} else if err := compareExact(preds, first); err != nil {
			return fmt.Errorf("job %d scored differently: %w", i, err)
		}
	}
	if err := checkRescore(ctx, f, tgt, pool, n, job, [][]screen.Prediction{first}); err != nil {
		return err
	}
	var err error
	scorers := []screen.Scorer{f}
	var pre *featurize.PocketPrefeature
	preT := tr.timed("featurize.prefeature", tgt.Name, 0, func() { pre, err = screen.PrefeatureFor(scorers, tgt, job) })
	if err != nil {
		return err
	}
	jo := job
	jo.Prefeature = pre
	fixed, err := fixedJobMS(ctx, tr, f, tgt, poses, jo)
	if err != nil {
		return err
	}
	var lt layerTimes
	replayFeaturizeInfer(tr, "replay", 0, f, pre, poses[:min(len(poses), 2*job.BatchSize)], job.BatchSize, job.Precision, &lt)
	serialPerPose := (lt.featurize + lt.infer).Seconds() / float64(lt.poses)
	lt.put(rep)
	rep.put("featurize.prefeature_build_ms", ms(preT))
	rep.put("screen.job_ms", ms(jobT))
	rep.put("screen.fixed_ms_per_job", fixed)
	rep.put("screen.parallel_efficiency", serialPerPose*float64(n)/(jobT.Seconds()*float64(min(job.Ranks, runtime.GOMAXPROCS(0)))))
	rep.put("screen.attempts_per_job", 1)
	rep.put("trace.overhead_ms", ms(tracedT-plainT)/2)
	return finishTrace(o, rep, tr)
}
