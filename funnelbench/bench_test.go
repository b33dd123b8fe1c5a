package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"deepfusion/internal/campaign"
	"deepfusion/internal/fusion"
	"deepfusion/internal/h5lite"
	"deepfusion/internal/screen"
)

func samplePreds() []screen.Prediction {
	return []screen.Prediction{
		{CompoundID: "a", Target: "spike1", PoseRank: 0, Fusion: 6.25, Vina: -7.5, MMGBSA: -30},
		{CompoundID: "a", Target: "spike1", PoseRank: 1, Fusion: 5.5, Vina: -7.0, MMGBSA: -28},
		{CompoundID: "b", Target: "spike1", PoseRank: 0, Fusion: 4.75, Vina: -6.0, MMGBSA: -20},
	}
}

// TestGateRejectsDamage holds both comparisons to their contract: one
// perturbed score, one dropped pose and one duplicated pose each fail,
// and a reordered copy passes.
func TestGateRejectsDamage(t *testing.T) {
	want := samplePreds()
	cases := map[string]func([]screen.Prediction) []screen.Prediction{
		"perturbed": func(p []screen.Prediction) []screen.Prediction {
			p[1].Fusion = math.Nextafter(p[1].Fusion, math.Inf(1))
			return p
		},
		"perturbed beyond tolerance": func(p []screen.Prediction) []screen.Prediction {
			p[1].Fusion *= 1 + 10*precisionTolerance
			return p
		},
		"dropped":    func(p []screen.Prediction) []screen.Prediction { return p[:2] },
		"duplicated": func(p []screen.Prediction) []screen.Prediction { return append(p[:2], p[1]) },
	}
	for name, damage := range cases {
		got := damage(samplePreds())
		if err := compareExact(got, want); err == nil {
			t.Errorf("compareExact accepted a %s pose", name)
		}
		if name == "perturbed" {
			continue // within the f32 tolerance by design
		}
		if err := compareRelative(got, want, precisionTolerance); err == nil {
			t.Errorf("compareRelative accepted a %s pose", name)
		}
	}
	reordered := samplePreds()
	slices.Reverse(reordered)
	if err := compareExact(reordered, want); err != nil {
		t.Errorf("compareExact rejected a reordered copy: %v", err)
	}
	if err := compareRelative(reordered, want, precisionTolerance); err != nil {
		t.Errorf("compareRelative rejected a reordered copy: %v", err)
	}
}

// TestFunnelGateCatchesTamperedShard runs a smoke campaign, rewrites
// one shard with a single score moved by one ulp, and expects the
// funnel gate to fail.
func TestFunnelGateCatchesTamperedShard(t *testing.T) {
	ctx := context.Background()
	o := options{workload: "funnel", seed: 3, seconds: 1, workdir: t.TempDir(), size: smokeSize}
	f := newScorer(o.seed, fusion.DefaultCNN3DConfig())
	cfg := funnelConfig(o)
	r, err := runCampaign(ctx, filepath.Join(o.workdir, "c"), cfg, []screen.Scorer{f}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFunnel(ctx, cfg, f, []*campaignRun{r}); err != nil {
		t.Fatalf("gate failed on an untouched campaign: %v", err)
	}
	path := filepath.Join(r.dir, r.units[0].Shards[0])
	sf, err := campaign.ReadShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := screen.ReadShards([]*h5lite.File{sf})
	if err != nil {
		t.Fatal(err)
	}
	preds[0].Fusion = math.Nextafter(preds[0].Fusion, math.Inf(1))
	if err := campaign.WriteShardFile(path, screen.WriteShards(preds, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := checkFunnel(ctx, cfg, f, []*campaignRun{r}); err == nil {
		t.Fatal("gate accepted a shard with a perturbed score")
	}
}

// TestCatalogMatchesBenchmarkJSON holds the names and units the
// benchmark prints to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, cat []metricSpec) {
		var got, want []metricSpec
		for _, m := range declared {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		want = append(want, cat...)
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics in BENCHMARK.json %v, printed %v", kind, got, want)
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s is not in BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark runs %d", names, len(workloads))
	}
}

// TestSmoke runs every workload, measured and traced, at smoke size:
// each must pass its gate and print exactly its catalog's metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 2, seconds: 1, trace: trace, workdir: t.TempDir(), size: smokeSize}
			rep, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s (trace %v): correct %v, attempted %d, failed %d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
		}
	}
}
