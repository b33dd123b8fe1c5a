package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricSpec names one reported metric and its unit. The two catalogs
// below are the single list the benchmark prints from; the self-test
// holds BENCHMARK.json to them.
type metricSpec struct {
	name, unit string
}

// endToEnd is what a user of each workload sees. Every workload
// reports every one (see BENCHMARK.json for what each means per
// workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"compounds_per_s", "1/s"},
	{"poses_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what the traced run reports, one group per package of
// the funnel. A layer a workload does not run reports 0.
var perLayer = []metricSpec{
	{"chem.prepare_ms_per_compound", "ms"},
	{"dock.ms_per_compound", "ms"},
	{"dock.poses_per_compound", "count"},
	{"dock.reject_share", "ratio"},
	{"featurize.ms_per_pose", "ms"},
	{"featurize.prefeature_build_ms", "ms"},
	{"infer.ms_per_pose", "ms"},
	{"infer.cnn3d_ms_per_pose", "ms"},
	{"infer.sgcnn_ms_per_pose", "ms"},
	{"infer.allocs_per_batch", "count"},
	{"infer.dense_gflops", "GFLOP/s"},
	{"screen.job_ms", "ms"},
	{"screen.fixed_ms_per_job", "ms"},
	{"screen.parallel_efficiency", "ratio"},
	{"screen.attempts_per_job", "count"},
	{"screen.select_ms", "ms"},
	{"h5lite.encode_ms_per_shard", "ms"},
	{"h5lite.decode_ms_per_shard", "ms"},
	{"h5lite.bytes_per_pose", "B"},
	{"campaign.commit_ms_per_shard", "ms"},
	{"campaign.read_ms_per_shard", "ms"},
	{"campaign.unit_ms_p50", "ms"},
	{"campaign.unit_ms_max", "ms"},
	{"campaign.unit_samples", "count"},
	{"campaign.worker_busy_share", "ratio"},
	{"campaign.finalize_ms", "ms"},
	{"campaign.units_failed", "count"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_tail", "ms"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.wait_ms_tail", "ms"},
	{"serve.request_samples", "count"},
	{"serve.mean_batch_poses", "count"},
	{"serve.deadline_flush_share", "ratio"},
	{"serve.refused_share", "ratio"},
	{"serve.generator_late_ms", "ms"},
	{"serve.latency_p50_ms.r20", "ms"},
	{"serve.latency_tail_ms.r20", "ms"},
	{"serve.samples.r20", "count"},
	{"serve.latency_p50_ms.r60", "ms"},
	{"serve.latency_tail_ms.r60", "ms"},
	{"serve.samples.r60", "count"},
	{"serve.max_rate_rps", "1/s"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.failed_share", "ratio"},
	{"trace.peak_rss_mb", "MB"},
}

// unitOf returns a catalogued metric's unit.
func unitOf(name string) string {
	for _, cat := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range cat {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line a run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

// put records a catalogued metric; an uncatalogued name is a bug.
func (r *report) put(name string, v float64) {
	u := unitOf(name)
	if u == "" {
		panic("funnelbench: metric " + name + " is not in the catalog")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// zero fills every catalogued metric not yet reported with 0: the
// layers this workload does not run.
func (r *report) zero(cat []metricSpec) {
	for _, m := range cat {
		if _, ok := r.Metrics[m.name]; !ok {
			r.put(m.name, 0)
		}
	}
}

// checkNames verifies the report holds exactly the catalog's names.
func (r *report) checkNames(cat []metricSpec) error {
	var missing, extra []string
	for _, m := range cat {
		if _, ok := r.Metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	for name := range r.Metrics {
		if !slices.ContainsFunc(cat, func(m metricSpec) bool { return m.name == name }) {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		return fmt.Errorf("metric names differ from the catalog: missing %v, extra %v", missing, extra)
	}
	return nil
}

// tailBeyond is how many samples must lie above the tail percentile.
const tailBeyond = 10

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the value at the highest percentile that leaves at
// least tailBeyond samples above it, and that percentile. Below
// 2*tailBeyond samples such a percentile would sit at or under the
// median, so the maximum is reported instead (percentile 100).
func tail(xs []float64) (v, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n < 2*tailBeyond {
		return s[n-1], 100
	}
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call at a layer boundary. Spans of one unit or
// request share op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Op     string  `json:"op"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans and counts in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// begin opens a span and returns its ID (IDs start at 1; parent 0 is
// the root).
func (t *tracer) begin(name, op string, parent int) int {
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds an already-measured span.
func (t *tracer) record(name, op string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0))})
	return len(t.spans)
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += v
}

// timed runs fn inside a span.
func (t *tracer) timed(name, op string, parent int, fn func()) time.Duration {
	id := t.begin(name, op, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfMS returns, per span name, the summed self time: each span's
// duration minus the part of it that its children's union covers.
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] += (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of [lo, hi] covered by the union of ivs.
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	total, reach := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], reach), min(iv[1], hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// write stores the spans, counts and self times as JSON.
func (t *tracer) write(path string, extra map[string]any) error {
	self := t.selfMS()
	t.mu.Lock()
	doc := map[string]any{"host": hostInfo(), "spans": t.spans, "counts": t.counts, "self_ms": self}
	for k, v := range extra {
		doc[k] = v
	}
	data, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	return procStatusKB("VmHWM:") / 1024
}

func procStatusKB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb
		}
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// finishTrace reports the span count and failure share, fills the
// layers this workload does not run with 0, and writes the spans,
// counts and metrics next to the run's scratch directory.
func finishTrace(o options, rep *report, tr *tracer) error {
	rep.put("trace.spans", float64(len(tr.spans)))
	rep.put("trace.failed_share", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	rep.put("trace.peak_rss_mb", peakRSSMB())
	rep.zero(perLayer)
	path := filepath.Join(filepath.Dir(o.workdir), fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	return tr.write(path, map[string]any{"workload": o.workload, "seed": o.seed, "metrics": rep.Metrics})
}

// cpuTicks reads the machine's total and stolen CPU ticks from
// /proc/stat. Steal is time a virtual machine's CPUs were runnable
// but the host ran something else: on a shared host it is the largest
// source of run-to-run noise, so every run reports its share.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
