package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepfusion/internal/chem"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/libgen"
	"deepfusion/internal/screen"
	"deepfusion/internal/serve"
	"deepfusion/internal/target"
)

// compoundsPerRequest is the size of every serve-mixed submission.
const compoundsPerRequest = 2

// serveRequest is one generated submission: two library IDs or two
// inline SMILES against one target.
type serveRequest struct {
	Target    string   `json:"target"`
	Compounds []string `json:"compounds,omitempty"`
	SMILES    []string `json:"smiles,omitempty"`
}

// servePools draws n library IDs whose compounds prepare and n SMILES
// strings that parse and prepare, from the seed.
func servePools(seed int64, n int, prepSeed int64) (ids, smiles []string) {
	rng := rand.New(rand.NewSource(seed))
	libs := libgen.All()
	seen := map[string]bool{}
	for len(ids) < n || len(smiles) < n {
		lib := libs[rng.Intn(len(libs))]
		i := rng.Intn(lib.Size)
		if id := lib.ID(i); len(ids) < n && !seen[id] {
			if _, err := libgen.MolByID(id); err == nil {
				ids = append(ids, id)
				seen[id] = true
			}
			continue
		}
		s := lib.Compound(i)
		if seen[s] || len(smiles) >= n {
			continue
		}
		if m, err := chem.ParseSMILES(s); err == nil {
			if _, err := chem.Prepare(m, prepSeed); err == nil {
				smiles = append(smiles, s)
				seen[s] = true
			}
		}
	}
	return ids, smiles
}

// serveRequests generates n submissions, numbered from 0.
func serveRequests(rng *rand.Rand, n int, ids, smiles []string) []serveRequest {
	reqs := make([]serveRequest, n)
	for i := range reqs {
		reqs[i] = makeRequest(rng, i, ids, smiles)
	}
	return reqs
}

// makeRequest generates submission i: targets rotate over all four,
// and every other submission names library IDs, the rest inline
// SMILES.
func makeRequest(rng *rand.Rand, i int, ids, smiles []string) serveRequest {
	targets := target.All()
	r := serveRequest{Target: targets[i%len(targets)].Name}
	pool := ids
	if i%2 == 1 {
		pool = smiles
	}
	for _, j := range rng.Perm(len(pool))[:compoundsPerRequest] {
		if i%2 == 1 {
			r.SMILES = append(r.SMILES, pool[j])
		} else {
			r.Compounds = append(r.Compounds, pool[j])
		}
	}
	return r
}

// outcome is one request as the client saw it.
type outcome struct {
	req                 serveRequest
	due, sent, accepted time.Time
	done                time.Time
	submitCode, getCode int
	preds               []screen.Prediction
	err                 error
}

func (o *outcome) ok() bool { return o.submitCode == http.StatusAccepted && o.getCode == http.StatusOK }

func (o *outcome) refused() bool {
	return o.submitCode == http.StatusTooManyRequests || o.submitCode == http.StatusServiceUnavailable
}

func (o *outcome) latencyMS() float64 { return ms(o.done.Sub(o.due)) }

// call serves one in-process HTTP request and returns its status and
// body.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// send submits one request and long-polls its results. With a tracer
// it records the request's span and its submit and wait children.
func send(h http.Handler, r serveRequest, due time.Time, tr *tracer, op string) *outcome {
	out := &outcome{req: r, due: due, sent: time.Now()}
	body, err := json.Marshal(r)
	if err != nil {
		out.err = err
		return out
	}
	code, resp := call(h, http.MethodPost, "/v1/submit", body)
	out.submitCode, out.accepted = code, time.Now()
	if code != http.StatusAccepted {
		out.done = out.accepted
		out.err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(resp))
		return out
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(resp, &sub); err != nil {
		out.err = err
		return out
	}
	code, resp = call(h, http.MethodGet, "/v1/requests/"+sub.ID+"/results?wait=1", nil)
	out.getCode, out.done = code, time.Now()
	if tr != nil {
		id := tr.record("serve.request", op, 0, out.due, out.done)
		tr.record("serve.submit", op, id, out.sent, out.accepted)
		tr.record("serve.wait", op, id, out.accepted, out.done)
	}
	if code != http.StatusOK {
		out.err = fmt.Errorf("results: HTTP %d: %s", code, bytes.TrimSpace(resp))
		return out
	}
	var res serve.ResultsResponse
	if err := json.Unmarshal(resp, &res); err != nil {
		out.err = err
		return out
	}
	for _, p := range res.Predictions {
		out.preds = append(out.preds, screen.Prediction{CompoundID: p.CompoundID, Target: res.Target,
			PoseRank: p.PoseRank, Fusion: p.Fusion, Vina: p.Vina, MMGBSA: p.MMGBSA, Scores: p.Scores})
	}
	return out
}

// phase is one run of requests: open-loop at a fixed rate, or closed
// loop (rps is then the rate achieved).
type phase struct {
	rps      float64
	outcomes []*outcome
	aborted  bool // the backlog outgrew maxOutstanding and sending stopped
}

// maxOutstanding bounds requests in flight during a phase. It stays
// below the admission capacity (32 batches of 8 poses, at most 6 poses
// a request), so a phase past the service's capacity stops as a
// growing backlog instead of driving the service into refusals.
const maxOutstanding = 28

// runPhase sends reqs at seeded Poisson arrivals of mean rate rps from
// one generator goroutine; each request runs on its own goroutine and
// is timed from its due time. It returns once every request is done.
func runPhase(h http.Handler, reqs []serveRequest, rps float64, rng *rand.Rand, tr *tracer, name string) *phase {
	ph := &phase{rps: rps}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var inFlight atomic.Int64
	due := time.Now()
	for i, r := range reqs {
		due = due.Add(time.Duration(rng.ExpFloat64() / rps * float64(time.Second)))
		time.Sleep(time.Until(due))
		if inFlight.Load() >= maxOutstanding {
			ph.aborted = true
			break
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(r serveRequest, due time.Time, op string) {
			defer wg.Done()
			defer inFlight.Add(-1)
			out := send(h, r, due, tr, op)
			mu.Lock()
			ph.outcomes = append(ph.outcomes, out)
			mu.Unlock()
		}(r, due, fmt.Sprintf("%s/%d", name, i))
	}
	wg.Wait()
	ph.log(name)
	return ph
}

func (ph *phase) log(name string) {
	lat := ph.latencies()
	tl, pct := tail(lat)
	var submit, wait []float64
	for _, o := range ph.outcomes {
		if o.ok() {
			submit = append(submit, ms(o.accepted.Sub(o.due)))
			wait = append(wait, ms(o.done.Sub(o.accepted)))
		}
	}
	fmt.Fprintf(os.Stderr, "phase %s: %g req/s, %d sent, %d failed, aborted %v, p50 %.1f ms (submit %.1f, wait %.1f), p%.1f %.1f ms\n",
		name, ph.rps, len(ph.outcomes), ph.failures(), ph.aborted, median(lat), median(submit), median(wait), pct, tl)
}

// runClosed is one closed-loop client: for d it sends submissions
// 0, 1, 2, …, each as soon as the previous one has its results, and
// reports the completion rate achieved. Targets rotate over all four
// and library IDs alternate with inline SMILES; every batch holds one
// request's poses and flushes at the MaxWait deadline. One client
// keeps no two requests in the service at once: open-loop arrivals at
// 20 req/s and closed loops of 2 and 8 clients spread up to and past
// the 25% bound between runs of the same code on a shared 2-vCPU host,
// where one client stayed under 6% while the host was calm.
func runClosed(h http.Handler, rng *rand.Rand, d time.Duration, ids, smiles []string, name string) *phase {
	ph := &phase{}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		ph.outcomes = append(ph.outcomes, send(h, makeRequest(rng, i, ids, smiles), time.Now(), nil, ""))
	}
	// The rate is the median over equal windows of the phase, so a
	// burst of host contention in one window does not set the result.
	// A window's rate is its completions after the first over the time
	// from its first completion to its last.
	type window struct {
		n           int
		first, last time.Time
	}
	wins := make([]window, closedWindows)
	for _, o := range ph.outcomes {
		w := int(float64(closedWindows) * o.done.Sub(start).Seconds() / d.Seconds())
		if !o.ok() || w >= closedWindows {
			continue
		}
		if wins[w].n == 0 || o.done.Before(wins[w].first) {
			wins[w].first = o.done
		}
		if o.done.After(wins[w].last) {
			wins[w].last = o.done
		}
		wins[w].n++
	}
	var rates []float64
	for _, w := range wins {
		if w.n > 1 {
			rates = append(rates, float64(w.n-1)/w.last.Sub(w.first).Seconds())
		}
	}
	ph.rps = median(rates)
	ph.log(name)
	return ph
}

// closedWindows is how many equal windows a closed-loop phase's
// completions are counted in.
const closedWindows = 5

// latencies returns the latencies of the phase's completed requests.
func (ph *phase) latencies() []float64 {
	var xs []float64
	for _, o := range ph.outcomes {
		if o.ok() {
			xs = append(xs, o.latencyMS())
		}
	}
	return xs
}

// failures counts requests refused or failed.
func (ph *phase) failures() int {
	n := 0
	for _, o := range ph.outcomes {
		if !o.ok() {
			n++
		}
	}
	return n
}

// meets reports whether the phase held the limit: tail latency within
// limit, at most 1% of requests refused or failed (a failed request
// misses the limit), and no growing backlog.
func (ph *phase) meets(limit time.Duration) bool {
	tl, _ := tail(ph.latencies())
	return !ph.aborted && 100*ph.failures() <= len(ph.outcomes) && tl <= ms(limit)
}

// serveEngine is one service instance: engine, durable store, handler.
type serveEngine struct {
	engine *serve.Engine
	h      http.Handler
}

// startService builds the engine over a durable directory and sends one
// warm request per target; its duration is one set-up sample.
func startService(dir string, f *fusion.Fusion, warm []serveRequest) (*serveEngine, time.Duration, error) {
	t0 := time.Now()
	cfg := serve.DefaultConfig([]screen.Scorer{f})
	cfg.Dir = dir
	e, err := serve.NewEngine(cfg)
	if err != nil {
		return nil, 0, err
	}
	s := &serveEngine{engine: e, h: serve.NewHandler(e)}
	for _, r := range warm {
		if out := send(s.h, r, time.Now(), nil, ""); !out.ok() {
			e.Drain()
			return nil, 0, fmt.Errorf("warm request: %v", out.err)
		}
	}
	return s, time.Since(t0), nil
}

// setupService sets the service up setupRepeats times and keeps the
// last one; the set-up time is the median.
func setupService(o options, f *fusion.Fusion, warm []serveRequest, tag string) (*serveEngine, float64, error) {
	var svc *serveEngine
	var setups []float64
	for i := 0; i < o.size.setupRepeats; i++ {
		if svc != nil {
			svc.engine.Drain()
		}
		var d time.Duration
		var err error
		svc, d, err = startService(filepath.Join(o.workdir, fmt.Sprintf("%s-service-%d", tag, i)), f, warm)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.Seconds())
	}
	return svc, median(setups), nil
}

// serveRun is what one pass of serve-mixed's phases measured.
type serveRun struct {
	fixed   []*phase // fixedRates, in order
	ladder  []*phase // max-rate probes, up to the first that failed
	maxRate float64
}

func (r *serveRun) phases() []*phase { return append(append([]*phase{}, r.fixed...), r.ladder...) }

// measureService runs the fixed-rate phases and then the max-rate
// search: probes at rising rates up to the first that misses the limit.
func measureService(o options, h http.Handler, rng *rand.Rand, ids, smiles []string, tr *tracer, tag string) *serveRun {
	run := &serveRun{}
	// Budget: 30% of the seconds at the first fixed rate, 15% at the
	// second, the rest spread over the max-rate probes.
	shares := []float64{0.30, 0.15}
	for i, fr := range fixedRates {
		n := max(o.size.minServeReqs, int(fr.rps*shares[i]*o.seconds))
		reqs := serveRequests(rng, n, ids, smiles)
		run.fixed = append(run.fixed, runPhase(h, reqs, fr.rps, rng, tr, tag+"/"+fr.name))
	}
	probeSec := min(o.seconds*0.55/float64(len(o.size.serveLadder)), o.size.serveProbeSec)
	last := run.fixed[len(run.fixed)-1]
	if !last.meets(serveLimit) {
		run.maxRate = crossing(run.fixed[0], last, serveLimit)
		return run
	}
	run.maxRate = last.rps
	for _, rps := range o.size.serveLadder {
		reqs := serveRequests(rng, int(rps*probeSec), ids, smiles)
		ph := runPhase(h, reqs, rps, rng, tr, fmt.Sprintf("%s/probe%g", tag, rps))
		run.ladder = append(run.ladder, ph)
		if !ph.meets(serveLimit) {
			run.maxRate = crossing(last, ph, serveLimit)
			break
		}
		last = ph
		run.maxRate = rps
	}
	return run
}

// crossing estimates the rate at which tail latency reaches limit,
// interpolating linearly between a passing phase and a failing one.
// When the failing phase failed on refusals or backlog rather than on
// latency, the passing rate is the estimate.
func crossing(pass, fail *phase, limit time.Duration) float64 {
	ta, _ := tail(pass.latencies())
	tb, _ := tail(fail.latencies())
	if fail.aborted || 100*fail.failures() > len(fail.outcomes) || tb <= ta {
		return pass.rps
	}
	x := (ms(limit) - ta) / (tb - ta)
	return pass.rps + min(max(x, 0), 1)*(fail.rps-pass.rps)
}

// runServe measures serve-mixed (or makes its traced run) and checks
// every completed request against its RunJob reference.
func runServe(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	f := newScorer(o.seed, fusion.DefaultCNN3DConfig())
	prepSeed := serve.DefaultConfig(nil).Job.Seed
	ids, smiles := servePools(o.seed, o.size.servePool, prepSeed)
	if o.trace {
		return rep, traceServe(ctx, o, rep, f, ids, smiles)
	}
	rng := rand.New(rand.NewSource(o.seed))
	svc, setup, err := setupService(o, f, serveRequests(rng, len(target.All()), ids, smiles), "measured")
	if err != nil {
		return rep, err
	}
	// The whole budget is one closed-loop client.
	ph := runClosed(svc.h, rng, time.Duration(o.seconds*float64(time.Second)), ids, smiles, "measured/closed")
	svc.engine.Drain()
	if err := checkServe(ctx, rep, f, prepSeed, []*phase{ph}); err != nil {
		return rep, err
	}
	rep.put("setup_s", setup)
	rep.put("compounds_per_s", ph.rps*compoundsPerRequest)
	rep.put("poses_per_s", ph.rps*posesPerRequest([]*phase{ph}))
	p50, tl := ph.windowedLatency(o.size.minServeReqs)
	fmt.Fprintf(os.Stderr, "latency: medians over %d windows of %d requests, tail p90 of each\n",
		len(ph.latencies())/o.size.minServeReqs, o.size.minServeReqs)
	rep.put("latency_p50_ms", p50)
	rep.put("latency_tail_ms", tl)
	return rep, nil
}

// windowedLatency splits the phase's completed requests, in due-time
// order, into consecutive windows of n and returns the medians over
// the windows of each window's p50 and tail. With n = 100 a window's
// tail is its p90, the highest percentile with tailBeyond samples
// above it; the median over windows keeps one burst of host contention
// from setting the result.
func (ph *phase) windowedLatency(n int) (p50, tl float64) {
	var done []*outcome
	for _, o := range ph.outcomes {
		if o.ok() {
			done = append(done, o)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].due.Before(done[b].due) })
	var p50s, tails []float64
	for lo := 0; lo+n <= len(done); lo += n {
		var lat []float64
		for _, o := range done[lo : lo+n] {
			lat = append(lat, o.latencyMS())
		}
		t, _ := tail(lat)
		p50s = append(p50s, median(lat))
		tails = append(tails, t)
	}
	return median(p50s), median(tails)
}

// posesPerRequest is the mean number of poses a completed request
// carried.
func posesPerRequest(phases []*phase) float64 {
	n, poses := 0, 0
	for _, ph := range phases {
		for _, o := range ph.outcomes {
			if o.ok() {
				n++
				poses += len(o.preds)
			}
		}
	}
	return float64(poses) / float64(max(n, 1))
}

// serveRef caches the reference predictions of one compound as the
// handler names it in one request slot.
type serveRef struct {
	target, name, spec string
}

// checkServe counts every request into the failure accounting and
// checks each completed one: its predictions must equal, key by key
// and bitwise, screen.RunJob over the same compounds prepared and
// docked the way the handler does it.
func checkServe(ctx context.Context, rep *report, f *fusion.Fusion, prepSeed int64, phases []*phase) error {
	cache := map[serveRef][]screen.Prediction{}
	job := serve.DefaultConfig(nil).Job
	job.Ranks, job.LoadersPerRank = 1, 1
	reference := func(ref serveRef) ([]screen.Prediction, error) {
		if p, ok := cache[ref]; ok {
			return p, nil
		}
		var m *chem.Mol
		var err error
		if ref.name == ref.spec {
			m, err = libgen.MolByID(ref.spec)
		} else {
			var raw *chem.Mol
			if raw, err = chem.ParseSMILES(ref.spec); err == nil {
				if raw.Name == "" {
					raw.Name = ref.name
				}
				if m, err = chem.Prepare(raw, prepSeed); err == nil {
					m.Name = raw.Name
				}
			}
		}
		if err != nil {
			return nil, err
		}
		tgt := target.ByName(ref.target)
		poses, _, err := screen.DockCompounds(ctx, tgt, []*chem.Mol{m}, 3, prepSeed)
		if err != nil {
			return nil, err
		}
		sortCanonical(poses)
		preds, err := screen.RunJob(ctx, f, tgt, poses, job)
		cache[ref] = preds
		return preds, err
	}
	for _, ph := range phases {
		for _, o := range ph.outcomes {
			rep.Attempted++
			if !o.ok() {
				if rep.Failed == 0 {
					fmt.Fprintf(os.Stderr, "first failed request: %v\n", o.err)
				}
				rep.Failed++
				continue
			}
			var want []screen.Prediction
			for _, id := range o.req.Compounds {
				p, err := reference(serveRef{o.req.Target, id, id})
				if err != nil {
					return err
				}
				want = append(want, p...)
			}
			for i, s := range o.req.SMILES {
				p, err := reference(serveRef{o.req.Target, fmt.Sprintf("smiles:%d", i), s})
				if err != nil {
					return err
				}
				want = append(want, p...)
			}
			if err := compareExact(o.preds, want); err != nil {
				return fmt.Errorf("request %+v: %w", o.req, err)
			}
		}
	}
	return nil
}

// serviceStatus reads GET /v1/status.
func serviceStatus(h http.Handler) (serve.ServiceStatus, error) {
	var st serve.ServiceStatus
	code, body := call(h, http.MethodGet, "/v1/status", nil)
	if code != http.StatusOK {
		return st, fmt.Errorf("status: HTTP %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// traceServe is serve-mixed's traced run: one untraced phase at the
// first fixed rate (the overhead baseline), then every phase with a
// span per request and its submit and wait children, with the
// service's /v1/status counters read before and after; then a serial
// replay of the layers under the handler over the compound pools:
// preparation, docking, the prefeature, featurization and inference.
func traceServe(ctx context.Context, o options, rep *report, f *fusion.Fusion, ids, smiles []string) error {
	rng := rand.New(rand.NewSource(o.seed))
	svc, _, err := setupService(o, f, serveRequests(rng, len(target.All()), ids, smiles), "traced")
	if err != nil {
		return err
	}
	defer svc.engine.Drain()
	fr := fixedRates[0]
	base := runPhase(svc.h, serveRequests(rng, o.size.minServeReqs, ids, smiles), fr.rps, rng, nil, "untraced")
	before, err := serviceStatus(svc.h)
	if err != nil {
		return err
	}
	tr := newTracer()
	run := measureService(o, svc.h, rng, ids, smiles, tr, "traced")
	after, err := serviceStatus(svc.h)
	if err != nil {
		return err
	}
	prepSeed := serve.DefaultConfig(nil).Job.Seed
	if err := checkServe(ctx, rep, f, prepSeed, append(run.phases(), base)); err != nil {
		return err
	}
	var submit, wait, late []float64
	refused, sent := 0, 0
	for _, ph := range run.phases() {
		for _, oc := range ph.outcomes {
			sent++
			late = append(late, ms(oc.sent.Sub(oc.due)))
			if oc.refused() {
				refused++
			}
			if oc.ok() {
				submit = append(submit, ms(oc.accepted.Sub(oc.sent)))
				wait = append(wait, ms(oc.done.Sub(oc.accepted)))
			}
		}
	}
	putP50Tail(rep, "serve.submit_ms_p50", "serve.submit_ms_tail", submit)
	putP50Tail(rep, "serve.wait_ms_p50", "serve.wait_ms_tail", wait)
	rep.put("serve.request_samples", float64(len(submit)))
	d := after.Stats
	flushes := (d.FlushesFull - before.Stats.FlushesFull) + (d.FlushesDeadline - before.Stats.FlushesDeadline) + (d.FlushesDrain - before.Stats.FlushesDrain)
	rep.put("serve.mean_batch_poses", float64(d.PosesScored-before.Stats.PosesScored)/float64(flushes))
	rep.put("serve.deadline_flush_share", float64(d.FlushesDeadline-before.Stats.FlushesDeadline)/float64(flushes))
	rep.put("serve.refused_share", float64(refused)/float64(sent))
	rep.put("serve.generator_late_ms", slices.Max(late))
	for i, fr := range fixedRates {
		lat := run.fixed[i].latencies()
		putP50Tail(rep, "serve.latency_p50_ms."+fr.name, "serve.latency_tail_ms."+fr.name, lat)
		rep.put("serve.samples."+fr.name, float64(len(lat)))
	}
	rep.put("serve.max_rate_rps", run.maxRate)
	rep.put("trace.overhead_ms", median(run.fixed[0].latencies())-median(base.latencies()))

	// Serial replay of the layers the handler and the workers call.
	var prep time.Duration
	var mols []*chem.Mol
	for _, id := range ids {
		var m *chem.Mol
		prep += tr.timed("chem.prepare", id, 0, func() { m, err = libgen.MolByID(id) })
		if err != nil {
			return err
		}
		mols = append(mols, m)
	}
	for i, s := range smiles {
		var m *chem.Mol
		prep += tr.timed("chem.prepare", s, 0, func() {
			var raw *chem.Mol
			if raw, err = chem.ParseSMILES(s); err == nil {
				m, err = chem.Prepare(raw, prepSeed)
			}
		})
		if err != nil {
			return err
		}
		m.Name = fmt.Sprintf("smiles:%d", i%compoundsPerRequest)
		mols = append(mols, m)
	}
	rep.put("chem.prepare_ms_per_compound", ms(prep)/float64(len(mols)))
	job := serve.DefaultConfig(nil).Job
	var dockT time.Duration
	var docked, posesN, rejected int
	var pres []time.Duration
	var lt layerTimes
	for _, tgt := range target.All() {
		var all []screen.Pose
		for _, m := range mols {
			var poses []screen.Pose
			var problems []screen.DockProblem
			dockT += tr.timed("dock", m.Name, 0, func() {
				poses, problems, err = screen.DockCompounds(ctx, tgt, []*chem.Mol{m}, 3, prepSeed)
			})
			if err != nil {
				return err
			}
			docked++
			posesN += len(poses)
			rejected += len(problems)
			all = append(all, poses...)
		}
		var pre *featurize.PocketPrefeature
		pres = append(pres, tr.timed("featurize.prefeature", tgt.Name, 0, func() {
			pre, err = screen.PrefeatureFor([]screen.Scorer{f}, tgt, job)
		}))
		if err != nil {
			return err
		}
		replayFeaturizeInfer(tr, tgt.Name, 0, f, pre, all, job.BatchSize, job.Precision, &lt)
	}
	rep.put("dock.ms_per_compound", ms(dockT)/float64(docked))
	rep.put("dock.poses_per_compound", float64(posesN)/float64(docked))
	rep.put("dock.reject_share", float64(rejected)/float64(docked))
	rep.put("featurize.prefeature_build_ms", ms(sumDur(pres))/float64(len(pres)))
	lt.put(rep)
	return finishTrace(o, rep, tr)
}

func putP50Tail(rep *report, p50Name, tailName string, xs []float64) {
	tl, _ := tail(xs)
	rep.put(p50Name, median(xs))
	rep.put(tailName, tl)
}
