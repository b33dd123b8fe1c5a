package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/chem"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/h5lite"
	"deepfusion/internal/libgen"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// funnelConfig is the default campaign over the workload's deck and
// seed: Coherent Fusion at f64 on the 8³ grid, chunks of 12, 3 poses,
// 2 workers, 4 ranks × 3 loaders, batch 8, 2 fsync'd shards per unit,
// finalize with AMPL and the two-stage assay.
func funnelConfig(o options) campaign.Config {
	cfg := campaign.DefaultConfig()
	cfg.Compounds = o.size.deck
	cfg.Seed = o.seed
	return cfg
}

// campaignRun is one measured campaign.New + campaign.Run.
type campaignRun struct {
	dir        string
	wall       time.Duration
	pairs      int // deck compounds × targets
	poses      int
	units      []campaign.UnitRecord
	unitMS     []float64
	busy       time.Duration // summed unit latencies
	firstStart time.Time
	lastDone   time.Time
	end        time.Time
	selections [][]campaign.SelectionRecord
}

// runCampaign creates and runs one campaign in dir. The unit hooks
// only take timestamps; with a tracer they also record unit spans.
func runCampaign(ctx context.Context, dir string, cfg campaign.Config, scorers []screen.Scorer, tr *tracer, root int) (*campaignRun, error) {
	r := &campaignRun{dir: dir}
	var mu sync.Mutex
	starts := map[string]time.Time{}
	t0 := time.Now()
	c, err := campaign.New(dir, cfg, scorers)
	if err != nil {
		return nil, err
	}
	newDone := time.Now()
	c.OnUnitStart = func(u campaign.UnitRecord) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		starts[u.ID] = now
		if r.firstStart.IsZero() {
			r.firstStart = now
		}
	}
	c.OnUnitDone = func(u campaign.UnitRecord) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		d := now.Sub(starts[u.ID])
		r.unitMS = append(r.unitMS, ms(d))
		r.busy += d
		r.lastDone = now
		if tr != nil {
			tr.record("campaign.unit", u.ID, root, starts[u.ID], now)
		}
	}
	if tr != nil {
		c.OnShardWrite = func(unitID, shard string) { tr.count("campaign.shards_written", 1) }
	}
	res, err := c.Run(ctx)
	r.end = time.Now()
	r.wall = r.end.Sub(t0)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.record("campaign.new", "campaign", root, t0, newDone)
		tr.record("campaign.finalize", "campaign", root, r.lastDone, r.end)
	}
	r.units = c.Units()
	for _, u := range r.units {
		r.poses += u.Poses
	}
	for _, t := range res.PerTarget {
		r.selections = append(r.selections, t.Selections)
	}
	r.pairs = len(c.Config().Targets) * c.Status().DeckSize
	return r, nil
}

// runFunnel measures whole campaigns for the time budget, or makes the
// traced run, then checks every shard of the first campaign against a
// 1-rank RunJob reference and the selections across campaigns.
func runFunnel(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	var f *fusion.Fusion
	// Building the repro-shape model takes under a millisecond, so it
	// is repeated many times for a steady median.
	var setup []float64
	for i := 0; i < 17*o.size.setupRepeats; i++ {
		t0 := time.Now()
		f = newScorer(o.seed, fusion.DefaultCNN3DConfig())
		setup = append(setup, time.Since(t0).Seconds())
	}
	scorers := []screen.Scorer{f}
	cfg := funnelConfig(o)

	if o.trace {
		return rep, traceFunnel(ctx, o, rep, f, cfg)
	}
	var runs []*campaignRun
	start := time.Now()
	for i := 0; len(runs) < 2 || time.Since(start).Seconds() < o.seconds; i++ {
		dir := filepath.Join(o.workdir, fmt.Sprintf("campaign-%02d", i))
		r, err := runCampaign(ctx, dir, cfg, scorers, nil, 0)
		if err != nil {
			rep.Attempted++
			rep.Failed++
			return rep, fmt.Errorf("campaign %d: %w", i, err)
		}
		countUnits(rep, r.units)
		runs = append(runs, r)
		if i > 0 {
			// Only the first campaign's shards are checked against the
			// reference; later ones must match it in their selections.
			if err := os.RemoveAll(dir); err != nil {
				return rep, err
			}
		}
	}
	if err := checkFunnel(ctx, cfg, f, runs); err != nil {
		return rep, err
	}
	var cps, pps, unitMS []float64
	for _, r := range runs {
		cps = append(cps, float64(r.pairs)/r.wall.Seconds())
		pps = append(pps, float64(r.poses)/r.wall.Seconds())
		unitMS = append(unitMS, r.unitMS...)
	}
	p50 := median(unitMS)
	tl, pct := tail(unitMS)
	fmt.Fprintf(os.Stderr, "latency: %d work units of %d campaigns, tail p%.1f\n", len(unitMS), len(runs), pct)
	rep.put("setup_s", median(setup))
	rep.put("compounds_per_s", median(cps))
	rep.put("poses_per_s", median(pps))
	rep.put("latency_p50_ms", p50)
	rep.put("latency_tail_ms", tl)
	return rep, nil
}

// countUnits adds a campaign's scoring-job attempts to the failure
// accounting: every attempt is an operation, every attempt beyond a
// unit's first failed, and so did every unit left undone.
func countUnits(rep *report, units []campaign.UnitRecord) {
	for _, u := range units {
		rep.Attempted += u.Attempts
		rep.Failed += u.Attempts - 1
		if u.State != campaign.UnitDone {
			rep.Failed++
		}
	}
}

// unitSeed mirrors the campaign's per-unit docking seed (the
// unexported campaign.unitSeed): the reference must dock each chunk
// exactly as the campaign did. If the campaign changes its seeding,
// this check fails loudly rather than passing on different poses.
func unitSeed(cfgSeed int64, unitID string) int64 {
	return cfgSeed + int64(screen.ShardOf(unitID, 1<<20))*7919
}

// checkFunnel is the funnel's correctness gate. Every unit of the first
// campaign must be done, and its shard scores must be bitwise equal,
// key by key, to a 1-rank screen.RunJob over the same chunk docked
// with the unit's seed and sorted canonically. Every campaign of the
// run must select the same compounds with the same records.
func checkFunnel(ctx context.Context, cfg campaign.Config, f *fusion.Fusion, runs []*campaignRun) error {
	first := runs[0]
	for i, r := range runs[1:] {
		if !reflect.DeepEqual(r.selections, first.selections) {
			return fmt.Errorf("campaign %d selected differently from campaign 0", i+1)
		}
	}
	deck := libgen.Draw(libgen.All(), cfg.Compounds)
	ref := cfg.Job
	ref.Ranks, ref.LoadersPerRank = 1, 1
	for _, u := range first.units {
		if u.State != campaign.UnitDone {
			return fmt.Errorf("unit %s is %s", u.ID, u.State)
		}
		tgt := target.ByName(u.Target)
		poses, _, err := screen.DockCompounds(ctx, tgt, deck[u.Lo:u.Hi], cfg.MaxPoses, unitSeed(cfg.Seed, u.ID))
		if err != nil {
			return err
		}
		sortCanonical(poses)
		want, err := screen.RunJob(ctx, f, tgt, poses, ref)
		if err != nil {
			return fmt.Errorf("reference for unit %s: %w", u.ID, err)
		}
		var files []*h5lite.File
		for _, rel := range u.Shards {
			sf, err := campaign.ReadShardFile(filepath.Join(first.dir, rel))
			if err != nil {
				return err
			}
			files = append(files, sf)
		}
		got, err := screen.ReadShards(files)
		if err != nil {
			return err
		}
		if err := compareExact(got, want); err != nil {
			return fmt.Errorf("unit %s: %w", u.ID, err)
		}
	}
	return nil
}

// traceFunnel is the funnel's traced run. It runs campaigns with and
// without span-recording unit hooks (the wall-time difference is the
// tracing overhead), then replays every unit of the last traced
// campaign through the public calls the campaign makes, timing each:
// deck prepare, DockCompounds, RunJobEnsembleWithRetry,
// WriteShards and h5lite encode, WriteShardFile, ReadShardFile,
// h5lite decode, ReadShards, and per target AggregateByCompound and
// SelectForExperiment; plus serial featurization and warm
// PredictBatchInto over every unit's poses.
func traceFunnel(ctx context.Context, o options, rep *report, f *fusion.Fusion, cfg campaign.Config) error {
	scorers := []screen.Scorer{f}
	// A first, untimed campaign warms the process up. Then untraced,
	// traced, traced, untraced: the order cancels a linear drift
	// between the two halves of the overhead measurement. The last
	// traced campaign is the one the layer metrics come from.
	tr := newTracer()
	var runs []*campaignRun
	var traced *campaignRun
	var plainT, tracedT time.Duration
	for i, on := range []bool{false, false, true, true, false} {
		var t *tracer
		root := 0
		if on {
			t = tr
			root = tr.begin("campaign.run", fmt.Sprintf("campaign%d", i), 0)
		}
		r, err := runCampaign(ctx, filepath.Join(o.workdir, fmt.Sprintf("campaign-%d", i)), cfg, scorers, t, root)
		if err != nil {
			rep.Attempted++
			rep.Failed++
			return err
		}
		countUnits(rep, r.units)
		runs = append(runs, r)
		switch {
		case on:
			tr.end(root)
			tracedT += r.wall
			traced = r
		case i > 0:
			plainT += r.wall
		}
	}
	if err := checkFunnel(ctx, cfg, f, runs); err != nil {
		return err
	}
	rep.put("trace.overhead_ms", ms(tracedT-plainT)/2)
	rep.put("campaign.unit_ms_p50", median(traced.unitMS))
	rep.put("campaign.unit_ms_max", slices.Max(traced.unitMS))
	rep.put("campaign.unit_samples", float64(len(traced.unitMS)))
	rep.put("campaign.worker_busy_share", traced.busy.Seconds()/(float64(cfg.Workers)*traced.lastDone.Sub(traced.firstStart).Seconds()))
	rep.put("campaign.finalize_ms", ms(traced.end.Sub(traced.lastDone)))
	failed := 0
	for _, u := range traced.units {
		if u.State != campaign.UnitDone {
			failed++
		}
	}
	rep.put("campaign.units_failed", float64(failed))

	// Replay: the same units through the campaign's public calls.
	var deck []*chem.Mol
	prep := tr.timed("chem.prepare", "deck", 0, func() { deck = libgen.Draw(libgen.All(), cfg.Compounds) })
	rep.put("chem.prepare_ms_per_compound", ms(prep)/float64(len(deck)))
	job := cfg.Job
	var pres []time.Duration
	var lt layerTimes
	var dockT, encT, decT, commitT, readT time.Duration
	var docked, dockPoses, rejected, attempts, jobs, shards, shardBytes int
	var jobMS []float64
	var effNum, effDen float64
	var fixedMS float64
	ranks := float64(min(job.Ranks, runtime.GOMAXPROCS(0)))
	byTarget := map[string][]screen.Prediction{}
	replayDir := filepath.Join(o.workdir, "replay")
	if err := os.MkdirAll(replayDir, 0o755); err != nil {
		return err
	}
	for _, tname := range traced.targets() {
		tgt := target.ByName(tname)
		var pre *featurize.PocketPrefeature
		var perr error
		pres = append(pres, tr.timed("featurize.prefeature", tname, 0, func() { pre, perr = screen.PrefeatureFor(scorers, tgt, job) }))
		if perr != nil {
			return perr
		}
		jo := job
		jo.Prefeature = pre
		for _, u := range traced.units {
			if u.Target != tname {
				continue
			}
			uid := tr.begin("unit", u.ID, 0)
			var poses []screen.Pose
			var problems []screen.DockProblem
			var derr error
			dockT += tr.timed("dock", u.ID, uid, func() {
				poses, problems, derr = screen.DockCompounds(ctx, tgt, deck[u.Lo:u.Hi], cfg.MaxPoses, unitSeed(cfg.Seed, u.ID))
			})
			if derr != nil {
				return derr
			}
			docked += u.Hi - u.Lo
			dockPoses += len(poses)
			rejected += len(problems)
			sortCanonical(poses)
			var preds []screen.Prediction
			var n int
			jd := tr.timed("screen.job", u.ID, uid, func() {
				preds, n, derr = screen.RunJobEnsembleWithRetry(ctx, scorers, tgt, poses, jo, cfg.MaxAttempts)
			})
			if derr != nil {
				return derr
			}
			if fixedMS == 0 {
				if fixedMS, derr = fixedJobMS(ctx, tr, f, tgt, poses, jo); derr != nil {
					return derr
				}
			}
			jobMS = append(jobMS, ms(jd))
			attempts += n
			jobs++
			before := lt.featurize + lt.infer
			replayFeaturizeInfer(tr, u.ID, uid, f, pre, poses, job.BatchSize, job.Precision, &lt)
			serial := lt.featurize + lt.infer - before
			effNum += serial.Seconds()
			effDen += jd.Seconds() * ranks
			files := screen.WriteShards(preds, cfg.Shards)
			var read []*h5lite.File
			for si, sf := range files {
				var buf bytes.Buffer
				var werr error
				encT += tr.timed("h5lite.encode", u.ID, uid, func() { werr = sf.Write(&buf) })
				if werr != nil {
					return werr
				}
				shardBytes += buf.Len()
				decT += tr.timed("h5lite.decode", u.ID, uid, func() { _, werr = h5lite.Decode(u.ID, buf.Bytes()) })
				if werr != nil {
					return werr
				}
				path := filepath.Join(replayDir, fmt.Sprintf("%s_s%02d.h5l", u.ID, si))
				commitT += tr.timed("campaign.commit", u.ID, uid, func() { werr = campaign.WriteShardFile(path, sf) })
				if werr != nil {
					return werr
				}
				var rf *h5lite.File
				readT += tr.timed("campaign.read", u.ID, uid, func() { rf, werr = campaign.ReadShardFile(path) })
				if werr != nil {
					return werr
				}
				read = append(read, rf)
				shards++
			}
			var folded []screen.Prediction
			tr.timed("screen.fold", u.ID, uid, func() { folded, derr = screen.ReadShards(read) })
			if derr != nil {
				return derr
			}
			byTarget[tname] = append(byTarget[tname], folded...)
			tr.end(uid)
		}
	}
	var selT time.Duration
	for tname, preds := range byTarget {
		selT += tr.timed("screen.select", tname, 0, func() {
			screen.SelectForExperiment(screen.AggregateByCompound(preds), cfg.Weights, cfg.TopN)
		})
	}
	rep.put("dock.ms_per_compound", ms(dockT)/float64(docked))
	rep.put("dock.poses_per_compound", float64(dockPoses)/float64(docked))
	rep.put("dock.reject_share", float64(rejected)/float64(docked))
	lt.put(rep)
	rep.put("featurize.prefeature_build_ms", ms(sumDur(pres))/float64(len(pres)))
	rep.put("screen.job_ms", median(jobMS))
	rep.put("screen.fixed_ms_per_job", fixedMS)
	rep.put("screen.parallel_efficiency", effNum/effDen)
	rep.put("screen.attempts_per_job", float64(attempts)/float64(jobs))
	rep.put("screen.select_ms", ms(selT)/float64(len(byTarget)))
	rep.put("h5lite.encode_ms_per_shard", ms(encT)/float64(shards))
	rep.put("h5lite.decode_ms_per_shard", ms(decT)/float64(shards))
	rep.put("h5lite.bytes_per_pose", float64(shardBytes)/float64(dockPoses))
	rep.put("campaign.commit_ms_per_shard", ms(commitT)/float64(shards))
	rep.put("campaign.read_ms_per_shard", ms(readT)/float64(shards))
	return finishTrace(o, rep, tr)
}

// targets lists the campaign's targets in unit order.
func (r *campaignRun) targets() []string {
	var out []string
	for _, u := range r.units {
		if !slices.Contains(out, u.Target) {
			out = append(out, u.Target)
		}
	}
	return out
}

// fixedJobMS is the median wall time of a job holding a single batch:
// what a job costs before its poses do.
func fixedJobMS(ctx context.Context, tr *tracer, s screen.Scorer, tgt *target.Pocket, poses []screen.Pose, o screen.JobOptions) (float64, error) {
	one := poses[:min(len(poses), o.BatchSize)]
	var walls []float64
	var err error
	for i := 0; i < 5 && err == nil; i++ {
		walls = append(walls, ms(tr.timed("screen.fixed_job", "fixed", 0, func() {
			_, err = screen.RunJob(ctx, s, tgt, one, o)
		})))
	}
	return median(walls), err
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
