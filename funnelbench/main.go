// Command funnelbench is the repository's end-to-end benchmark of the
// virtual-screening funnel (library → prepare → dock → featurize →
// score → persist → fold → select). It drives three workloads through
// the public API of the funnel's packages only:
//
//	funnel         campaign.New + campaign.Run over a library deck × all 4 targets
//	rescore-paper  screen.RunJob over pre-placed poses at the paper's 48³ grid, f32
//	serve-mixed    an open loop of seeded Poisson arrivals into serve.NewHandler
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it
// makes a separate traced run that times each layer's public calls
// from this package and reports the per-layer metrics and the tracing
// overhead. Every run checks the program's outputs against references
// computed outside the timed intervals and exits 1, printing no
// metrics, when a check fails. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash funnelbench/run.sh --workload funnel --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// options is one invocation: the workload, its seed, the measuring
// budget and where its scratch files go. size scales the inputs; the
// self-tests run every workload at smokeSize.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	size     size
}

// size holds every input size a workload derives its inputs from.
type size struct {
	deck          int       // funnel: compounds in the campaign deck
	rescorePoses  int       // rescore-paper: poses per RunJob
	rescorePool   int       // rescore-paper: distinct placed poses
	setupRepeats  int       // set-ups per run; setup_s is their median
	servePool     int       // serve-mixed: distinct library IDs and SMILES each
	serveLadder   []float64 // serve-mixed: max-rate probe rates
	paperGrid     bool      // rescore-paper at 48³ (false: repro grid, for smoke runs)
	minServeReqs  int       // fewest requests in a fixed-rate phase
	serveProbeSec float64   // seconds per max-rate probe
}

// rate is one fixed open-loop arrival rate of serve-mixed.
type rate struct {
	name string
	rps  float64
}

// fixedRates are serve-mixed's fixed open-loop rates: deadline-flush
// and queueing regimes.
var fixedRates = []rate{{"r20", 20}, {"r60", 60}}

// serveLimit is the tail-latency limit of the max-rate search.
const serveLimit = 200 * time.Millisecond

// fullSize is the size the benchmark is defined at.
var fullSize = size{
	deck:          144,
	rescorePoses:  32,
	rescorePool:   128,
	setupRepeats:  3,
	servePool:     64,
	serveLadder:   []float64{70, 80, 90, 100, 110, 120},
	paperGrid:     true,
	minServeReqs:  100,
	serveProbeSec: 2,
}

// smokeSize runs every workload in seconds, for the self-tests.
var smokeSize = size{
	deck:          12,
	rescorePoses:  16,
	rescorePool:   16,
	setupRepeats:  1,
	servePool:     4,
	serveLadder:   []float64{80},
	minServeReqs:  8,
	serveProbeSec: 0.3,
}

// memoryLimit is the soft heap limit every run sets.
const memoryLimit = 3 << 30

var workloads = map[string]func(context.Context, options) (*report, error){
	"funnel":        runFunnel,
	"rescore-paper": runRescore,
	"serve-mixed":   runServe,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: funnel, rescore-paper or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 makes the traced per-layer run instead of the measured one")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for campaign and service files")
	flag.Parse()
	o.trace = *traceFlag == 1
	o.size = fullSize
	if _, ok := workloads[o.workload]; !ok || (*traceFlag != 0 && *traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "funnelbench: bad arguments (workload %q, trace %d, seconds %g)\n", o.workload, *traceFlag, o.seconds)
		os.Exit(2)
	}
	// The paper-grid rescoring jobs keep ~2.5 GB live at their peak;
	// a soft heap limit stops the collector from doubling that on a
	// shared host. It is a fixed setting of the benchmark.
	debug.SetMemoryLimit(memoryLimit)
	hostJSON, _ := json.Marshal(hostInfo())
	fmt.Fprintf(os.Stderr, "host %s\n", hostJSON)

	total0, steal0 := cpuTicks()
	rep, err := run(context.Background(), o)
	total1, steal1 := cpuTicks()
	fmt.Fprintf(os.Stderr, "cpu steal %.1f%% of machine time during the run\n", 100*(steal1-steal0)/max(total1-total0, 1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "funnelbench: %s: %v\n", o.workload, err)
		if rep != nil {
			rep.Correct = false
			rep.Metrics = map[string]metric{}
			line, _ := json.Marshal(rep)
			fmt.Println(string(line))
		}
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "funnelbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload in a fresh scratch directory and checks
// that the report carries exactly the metric names of its mode. A
// returned error means the run is not to be trusted; the report, when
// non-nil, still carries the attempted and failed counts.
func run(ctx context.Context, o options) (*report, error) {
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.workdir = dir
	rep, err := workloads[o.workload](ctx, o)
	if err != nil {
		return rep, err
	}
	if !o.trace {
		rep.put("peak_rss_mb", peakRSSMB())
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if err := rep.checkNames(want); err != nil {
		return rep, err
	}
	return rep, nil
}

// hostInfo is the metadata every result is read against.
func hostInfo() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}
