package main

import (
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Rungs of the ladder are separate invocations, so
// Parent is logical: the span of the same request and repetition one
// rung up. Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = top rung
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory; they are written once, when the
// traced run ends. The ladder runs at concurrency 1, so no lock.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// time runs fn as a span under parent and returns the span's ID and
// duration.
func (r *spanRecorder) time(name, class string, parent int, fn func() error) (int, time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Class: class,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id, end.Sub(start), err
}

// ladderInput is what the traced run hands to the in-process ladder.
type ladderInput struct {
	cfg      runConfig
	workload string
	// pass is one pass of the workload's request stream; each request is
	// replayed reps times on every rung after one first touch.
	pass []request
	reps int
	// batches is the update sequence replayed down the update ladder.
	batches []growthBatch
	// offlinePasses repeats the offline ladder (more on offline-build,
	// whose subject it is).
	offlinePasses int
	// hitRatio is the cache hit ratio the daemon measured on this
	// workload's timed phase; it weights hit and miss paths when the
	// ladder attributes a request's time to layers.
	hitRatio float64
	rec      *spanRecorder
}

// servePath reports whether the workload's requests cross the serve
// layer; offline-build's never do.
func (in ladderInput) servePath() bool { return in.workload != wlOfflineBuild }

// ladderOutput is the ladder's per-layer metrics plus the top-rung
// times the reconciliation against the untraced run needs.
type ladderOutput struct {
	metrics map[string]metric
	classes []classRow
	// Per pass request, microseconds: in-process HTTP first touch (a
	// miss), in-process HTTP median when warm (a hit), and
	// SearchContext cache-off median.
	firstTouchUs, warmUs, cacheOffUs []float64
	newSearcherS                     []float64 // NewSearcherContext rung samples
}

const (
	hotReps       = 200            // x7 requests per rung
	coldPassSize  = 90             // distinct keys per rung ...
	coldReps      = 5              // ... x5 = 450 samples per rung
	tracedBatches = growthHubs     // update-ladder batches: one hub cycle ...
	liveBatches   = 2 * growthHubs // ... two on live-update, whose subject they are
)

// tracedPass picks the workload's pass: the mix, or — on serve-cold and
// offline-build, whose streams are drawn from the cold grid — keys from
// the far end of the seeded walk, which no timed phase reaches, so every
// first touch is a miss on the daemon too.
func tracedPass(cfg runConfig, name string) (pass []request, reps int) {
	if name == wlServeHot || name == wlLiveUpdate {
		return hotOrder(cfg.seed), hotReps
	}
	walk := newColdWalk(cfg.seed)
	for i := 0; i < coldPassSize; i++ {
		req, _ := walk.at(gridSize - 1 - i)
		pass = append(pass, req)
	}
	return pass, coldReps
}

// probePass replays the pass against the subprocess daemon on one
// connection, untraced: one first touch, then reps warm repetitions.
// It returns, per request, the first-touch time and the warm median,
// in microseconds.
func (sr *serveRun) probePass(pass []request, reps int) (first, warm []float64) {
	st := &phaseStats{Name: "probe"}
	bodies := make([][]byte, len(pass))
	samples := make([][]float64, len(pass))
	one := func(i int) float64 {
		before := len(st.lat)
		post(sr.client, sr.searchURL(), bodies[i], time.Now(), st, nil)
		if len(st.lat) == before {
			return 0
		}
		return us(st.lat[before])
	}
	for i, r := range pass {
		bodies[i] = r.body()
		first = append(first, one(i))
	}
	for rep := 0; rep < reps; rep++ {
		for i := range pass {
			samples[i] = append(samples[i], one(i))
		}
	}
	for i := range pass {
		warm = append(warm, medianOf(samples[i]))
	}
	sr.res.addPhase(st)
	return first, warm
}

// reconcile reports traced top rung / untraced measurement, summed over
// one pass: that ratio is the cost of measuring in-process and from
// outside instead of end to end.
func reconcile(res *workloadResult, name string, traced, untraced float64) {
	ratio := 0.0
	if untraced > 0 {
		ratio = traced / untraced
	}
	res.Metrics[name] = exact(ratio, "ratio", 1)
	warnOutsideBand(res, name)
}

// warnOutsideBand flags a ladder check outside 0.8-1.25: beyond that
// the rungs cannot be trusted to explain the end-to-end number.
func warnOutsideBand(res *workloadResult, name string) {
	if r := res.Metrics[name].Value; r < 0.8 || r > 1.25 {
		res.notef("WARN: %s = %.3f is outside 0.8-1.25", name, r)
	}
}

// runTraced is the traced run of one workload: the untraced phases
// again (their daemon-side counters are per-layer metrics, and their
// probe is what the ladder must reconcile with), then the in-process
// ladder, whose spans are written to bench/out/trace-<workload>.json.
func runTraced(cfg runConfig, name string) (*workloadResult, error) {
	res := newResult(name, 1)
	pass, reps := tracedPass(cfg, name)
	in := ladderInput{cfg: cfg, workload: name, pass: pass, reps: reps,
		offlinePasses: 1, rec: newSpanRecorder()}
	nBatches := tracedBatches
	if name == wlLiveUpdate {
		nBatches = liveBatches
	}
	for i := 0; i < nBatches; i++ {
		in.batches = append(in.batches, newGrowthBatch(cfg.seed, i))
	}

	var untracedPass []float64 // per pass request, microseconds
	if name == wlOfflineBuild {
		in.offlinePasses = 2
		e2e, probed, err := runOfflineBuild(cfg, pass)
		if err != nil {
			return nil, err
		}
		res.Correct, res.Attempted, res.Failed = e2e.Correct, e2e.Attempted, e2e.Failed
		res.Phases, res.Notes = e2e.Phases, e2e.Notes
		for k, m := range e2e.Metrics {
			res.Metrics[k] = m
		}
		untracedPass = probed
		// No daemon and no cache on this path: the counters are true zeros.
		zero := &daemonStats{}
		res.cacheCounters(zero, zero)
		res.Metrics["serve.shed_429"] = exact(0, "count", 0)
		res.Metrics["serve.http_5xx"] = exact(0, "count", 0)
		res.Metrics["loadgen.late_p99_ms"] = exact(0, "ms", 0)
	} else {
		sr, err := bootServe(cfg, res)
		if err != nil {
			return nil, err
		}
		first, warm := sr.probePass(pass, min(reps, 50))
		untracedPass = warm
		if name == wlServeCold {
			untracedPass = first
		}
		if name == wlLiveUpdate {
			err = sr.runLive()
		} else {
			err = sr.runClosed()
			res.Metrics["loadgen.late_p99_ms"] = exact(0, "ms", 0) // closed loop: nothing is scheduled
		}
		sr.close()
		if err != nil {
			return nil, err
		}
	}
	in.hitRatio = res.Metrics["methods.cache_hit_ratio"].Value

	out, err := runLadder(in)
	if err != nil {
		return nil, err
	}
	for k, m := range out.metrics {
		res.Metrics[k] = m
	}
	res.Classes = out.classes
	warnOutsideBand(res, "ladder.sum_ratio")

	top := out.warmUs
	switch name {
	case wlServeCold:
		top = out.firstTouchUs
	case wlOfflineBuild:
		top = out.cacheOffUs
	}
	reconcile(res, "ladder.reconcile_ratio", sum(top), sum(untracedPass))
	reconcile(res, "ladder.build_reconcile_ratio", medianOf(out.newSearcherS), res.Metrics["build_s"].Value)

	path := filepath.Join(cfg.root, outDir, "trace-"+name+".json")
	if err := writeJSON(path, struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{name, in.rec.spans}); err != nil {
		return nil, err
	}
	res.notef("%d spans written to %s", len(in.rec.spans), filepath.Join(outDir, "trace-"+name+".json"))
	res.finish()
	return res, nil
}
