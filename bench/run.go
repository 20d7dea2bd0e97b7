package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"toposearch"
)

// Load shape. The sandbox has two cores, so two connections saturate
// it; the open-loop rates leave the daemon idle between requests so
// that queueing, when it appears, is the refresh's doing.
const (
	clients        = 2
	liveSearchRate = 200 // req/s, open loop
	liveApplyEvery = time.Second
	setupBoots     = 2          // daemon boots per run; setup_s is their median
	setupSynths    = 15         // database generations per offline-build run
	sideApplies    = growthHubs // post-run sync batches on serve-hot and serve-cold
	minBuilds      = 3
	maxBuilds      = 6
	lateLimit      = 5 * time.Millisecond
)

// coldCacheBytes is the one non-default daemon flag, on serve-cold
// only: with the default 64 MiB cache a walk of ~3 KB entries needs
// about 20k misses before the first eviction, more than the gated run
// length produces, and the workload exists to run larger than the
// cache. 4 MiB puts the walk past the cache within the warm-up.
const coldCacheBytes = 4 << 20

type runConfig struct {
	root    string
	bin     string // daemon binary
	scale   int
	seed    int64
	seconds int
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// warmup is a tenth of the timed phase (3s at the default 30s), never
// under half a second: long enough to touch every hot key and fill the
// cold cache past its bound.
func (c runConfig) warmup() time.Duration {
	w := c.duration() / 10
	if w < 500*time.Millisecond {
		w = 500 * time.Millisecond
	}
	return w
}

// workloadResult is one workload's entry in the result schema.
type workloadResult struct {
	Workload    string            `json:"workload"`
	Trace       int               `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Phases      []*phaseStats     `json:"phases,omitempty"`
	DaemonFlags []string          `json:"daemon_flags,omitempty"`
	Notes       []string          `json:"notes,omitempty"`
	Classes     []classRow        `json:"classes,omitempty"`
}

// classRow is one request class of a traced ladder, rung medians in
// microseconds.
type classRow struct {
	Class string             `json:"class"`
	N     int                `json:"n"`
	Rungs map[string]float64 `json:"rungs_us"`
}

func newResult(name string, trace int) *workloadResult {
	return &workloadResult{Workload: name, Trace: trace, Correct: true, Metrics: map[string]metric{}}
}

func (r *workloadResult) notef(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// fail records an incorrect output (oracle mismatch, invalid run).
func (r *workloadResult) fail(format string, a ...any) {
	r.Correct = false
	r.Failed++
	r.notef("FAIL: "+format, a...)
}

// addPhase folds a load phase into the attempted/failed totals.
func (r *workloadResult) addPhase(p *phaseStats) {
	r.Phases = append(r.Phases, p)
	r.Attempted += p.Sent
	r.Failed += p.Failed
	if p.Failed > 0 {
		r.Correct = false
		r.notef("FAIL: phase %s: %d of %d requests failed, first: %s", p.Name, p.Failed, p.Sent, p.firstErr)
	}
}

// searchMetrics derives the search metrics from a timed phase: the
// gated median and rate, and the printed-only tail.
func (r *workloadResult) searchMetrics(p *phaseStats) {
	lat := durationsMs(p.lat)
	r.Metrics["search_p50_ms"] = summarize(lat, "ms", medianOf)
	r.Metrics["search_p99_ms"] = summarize(lat, "ms", p99Of)
	r.Metrics["search_qps"] = exact(float64(p.OK)/p.Elapsed.Seconds(), "1/s", p.OK)
	sort.Float64s(lat)
	if name, v, ok := tailPercentile(lat); ok {
		r.Metrics["search_"+name+"_ms"] = exact(v, "ms", len(lat))
	}
}

func (r *workloadResult) finish() {
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	r.Metrics["error_rate"] = exact(rate, "ratio", r.Attempted)
}

// daemonStats is the part of GET /v1/stats the benchmark reads.
type daemonStats struct {
	Searchers map[string]struct {
		Stats toposearch.SearcherStats `json:"stats"`
		Cache struct {
			Hits, Misses, Evictions, Invalidated, CarriedForward int64
			Entries                                              int
			Bytes                                                int64
		} `json:"cache"`
	} `json:"searchers"`
}

func fetchStats(client *http.Client, base string) (*daemonStats, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	var st daemonStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	if _, ok := st.Searchers["Protein-DNA"]; !ok {
		return nil, fmt.Errorf("GET /v1/stats: no Protein-DNA searcher")
	}
	return &st, nil
}

// cacheCounters reports the daemon's cache and admission counters over
// [before, after] — wire-visible counts, free with tracing off.
func (r *workloadResult) cacheCounters(before, after *daemonStats) {
	b, a := before.Searchers["Protein-DNA"], after.Searchers["Protein-DNA"]
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	n := int(hits + misses)
	r.Metrics["methods.cache_hit_ratio"] = exact(ratio, "ratio", n)
	r.Metrics["methods.cache_evictions"] = exact(float64(a.Cache.Evictions-b.Cache.Evictions), "count", n)
	r.Metrics["methods.cache_invalidated"] = exact(float64(a.Cache.Invalidated-b.Cache.Invalidated), "count", n)
	r.Metrics["methods.cache_carried_forward"] = exact(float64(a.Cache.CarriedForward-b.Cache.CarriedForward), "count", n)
	r.Metrics["methods.cache_resident_mb"] = exact(float64(a.Cache.Bytes)/1e6, "MB", a.Cache.Entries)
	r.Metrics["searcher.admit_degraded"] = exact(float64(a.Stats.Degraded-b.Stats.Degraded), "count", n)
	r.Metrics["searcher.admit_rejected"] = exact(float64(a.Stats.Rejected-b.Stats.Rejected), "count", n)
}

// serveRun is a booted daemon plus its oracle, shared by the three
// serve workloads in both the untraced and the traced run.
type serveRun struct {
	cfg    runConfig
	res    *workloadResult
	d      *daemon
	orc    *oracle
	client *http.Client
}

// bootServe boots the daemon setupBoots times (setup_s is the median;
// the last boot stays up) and builds the oracle beside the idle daemon.
func bootServe(cfg runConfig, res *workloadResult) (*serveRun, error) {
	var extra []string
	if res.Workload == wlServeCold {
		extra = []string{"-cachebytes", fmt.Sprint(coldCacheBytes)}
	}
	sr := &serveRun{cfg: cfg, res: res, client: newClient(clients)}
	var setups []float64
	for i := 0; i < setupBoots; i++ {
		if sr.d != nil {
			if err := sr.d.stop(); err != nil {
				return nil, err
			}
		}
		d, dt, err := startDaemon(cfg.root, cfg.bin, cfg.scale, "daemon-"+res.Workload+".log", extra...)
		if err != nil {
			return nil, err
		}
		sr.d = d
		setups = append(setups, dt.Seconds())
	}
	res.DaemonFlags = sr.d.flags
	res.Metrics["setup_s"] = summarize(setups, "s", medianOf)
	orc, err := newOracle(cfg.scale)
	if err != nil {
		_ = sr.d.stop() // the build error is the one to report
		return nil, err
	}
	sr.orc = orc
	res.Metrics["build_s"] = summarize([]float64{orc.buildS}, "s", medianOf)
	res.Metrics["store_mb"] = exact(orc.storeMB, "MB", 1)
	return sr, nil
}

func (sr *serveRun) close() {
	sr.orc.s.Close()
	if err := sr.d.stop(); err != nil {
		sr.res.notef("daemon shutdown: %v", err)
	}
}

func (sr *serveRun) searchURL() string { return sr.d.base + "/v1/search" }
func (sr *serveRun) applyURL() string  { return sr.d.base + "/v1/apply?sync=1" }

// stream returns the workload's request generator for the closed-loop
// clients: the seeded mix order, or disjoint strides of the cold walk.
// offset shifts the cold walk so successive phases never repeat a key
// (a phase that sent n requests used positions below clients*n).
func (sr *serveRun) stream(offset int) func(c, i int) (*prepared, bool) {
	if sr.res.Workload == wlServeCold {
		walk := newColdWalk(sr.cfg.seed)
		return func(c, i int) (*prepared, bool) {
			req, ok := walk.at(offset + i*clients + c)
			if !ok {
				return nil, false
			}
			return prepare(req), true
		}
	}
	var mix []*prepared
	for _, r := range hotOrder(sr.cfg.seed) {
		mix = append(mix, prepare(r))
	}
	return func(c, i int) (*prepared, bool) { return mix[(i+c*3)%len(mix)], true }
}

// checkKept runs the oracle over the responses held back during a
// closed-loop phase.
func (sr *serveRun) checkKept(p *phaseStats) {
	for _, k := range p.kept {
		sr.res.Attempted++
		if err := sr.orc.check(k.req, k.body); err != nil {
			sr.res.fail("oracle: %v", err)
		}
	}
}

// checkMix asks the daemon all seven queries and compares each answer
// with the oracle, after both absorbed the same batches.
func (sr *serveRun) checkMix() {
	for _, req := range hotMix() {
		st := &phaseStats{}
		post(sr.client, sr.searchURL(), req.body(), time.Now(), st, &req)
		sr.res.Attempted++
		if len(st.kept) != 1 {
			sr.res.fail("post-run %s: %s", req.class, st.firstErr)
			continue
		}
		if err := sr.orc.check(req, st.kept[0].body); err != nil {
			sr.res.fail("oracle after updates: %v", err)
		}
	}
}

// applySide follows the timed phase of serve-hot and serve-cold:
// sideApplies sync batches, one at a time, on the otherwise idle daemon,
// then the seven-query oracle check — the answers the timed phase left
// in the cache must not outlive the batches. Its apply_visible_p50_ms is
// printed, not gated.
func (sr *serveRun) applySide() error {
	st := &phaseStats{Name: "apply-side"}
	var batches []growthBatch
	for i := 0; i < sideApplies; i++ {
		b := newGrowthBatch(sr.cfg.seed, i)
		batches = append(batches, b)
		post(sr.client, sr.applyURL(), b.jsonl, time.Now(), st, nil)
	}
	sr.res.addPhase(st)
	sr.res.Metrics["apply_visible_p50_ms"] = summarize(durationsMs(st.lat), "ms", medianOf)
	if st.Failed > 0 {
		return nil // the oracle cannot follow a batch the daemon refused
	}
	if err := sr.orc.absorb(batches); err != nil {
		return err
	}
	sr.checkMix()
	return nil
}

// runClosed is the timed part of serve-hot and serve-cold: warm-up,
// then the closed loop for the run length, with daemon counters taken
// around the timed phase.
func (sr *serveRun) runClosed() error {
	warm := closedLoop("warmup", sr.client, sr.searchURL(), clients, sr.cfg.warmup(), sr.stream(0))
	sr.res.Phases = append(sr.res.Phases, warm)
	before, err := fetchStats(sr.client, sr.d.base)
	if err != nil {
		return err
	}
	timed := closedLoop("timed", sr.client, sr.searchURL(), clients, sr.cfg.duration(), sr.stream(clients*warm.Sent))
	after, err := fetchStats(sr.client, sr.d.base)
	if err != nil {
		return err
	}
	sr.res.addPhase(timed)
	sr.res.searchMetrics(timed)
	sr.res.cacheCounters(before, after)
	sr.res.Metrics["serve.shed_429"] = exact(float64(timed.Shed429), "count", timed.Sent)
	sr.res.Metrics["serve.http_5xx"] = exact(float64(timed.HTTP5xx), "count", timed.Sent)
	sr.checkKept(timed)
	return nil
}

// runLive is the timed part of live-update: a one-client pass of the
// mix to warm the cache, then two open loops side by side.
func (sr *serveRun) runLive() error {
	warm := closedLoop("warmup", sr.client, sr.searchURL(), 1, sr.cfg.warmup(), sr.stream(0))
	sr.res.Phases = append(sr.res.Phases, warm)
	before, err := fetchStats(sr.client, sr.d.base)
	if err != nil {
		return err
	}
	var mix [][]byte
	for _, r := range hotOrder(sr.cfg.seed) {
		mix = append(mix, r.body())
	}
	nBatches := int(sr.cfg.duration() / liveApplyEvery)
	batches := make([]growthBatch, nBatches)
	for i := range batches {
		batches[i] = newGrowthBatch(sr.cfg.seed, i)
	}
	var search, apply *phaseStats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		search = openLoop("timed-search", sr.client, sr.searchURL(), time.Second/liveSearchRate, sr.cfg.duration(),
			func(i int) []byte { return mix[i%len(mix)] })
	}()
	go func() {
		defer wg.Done()
		apply = openLoop("timed-apply", sr.client, sr.applyURL(), liveApplyEvery, sr.cfg.duration(),
			func(i int) []byte { return batches[i].jsonl })
	}()
	wg.Wait()
	after, err := fetchStats(sr.client, sr.d.base)
	if err != nil {
		return err
	}
	sr.res.addPhase(search)
	sr.res.addPhase(apply)
	sr.res.searchMetrics(search)
	sr.res.cacheCounters(before, after)
	sr.res.Metrics["serve.shed_429"] = exact(float64(search.Shed429+apply.Shed429), "count", search.Sent+apply.Sent)
	sr.res.Metrics["serve.http_5xx"] = exact(float64(search.HTTP5xx+apply.HTTP5xx), "count", search.Sent+apply.Sent)
	applyMs := durationsMs(apply.lat)
	sr.res.Metrics["apply_visible_p50_ms"] = summarize(applyMs, "ms", medianOf)
	sr.res.Metrics["apply_visible_max_ms"] = summarize(applyMs, "ms", func(s []float64) float64 { return s[len(s)-1] })
	sr.res.Metrics["apply_batches"] = exact(float64(apply.OK), "count", apply.Sent)

	late := durationsMs(append(append([]time.Duration(nil), search.late...), apply.late...))
	lm := summarize(late, "ms", p99Of)
	sr.res.Metrics["loadgen.late_p99_ms"] = lm
	if lm.Value > ms(lateLimit) {
		sr.res.fail("load generator ran %.3f ms late at p99 while the connection was idle (limit %s): run invalid", lm.Value, lateLimit)
	}
	if apply.Failed > 0 {
		return nil // the oracle cannot follow a batch the daemon refused
	}
	if err := sr.orc.absorb(batches); err != nil {
		return err
	}
	sr.checkMix()
	return nil
}

// runServeWorkload is one untraced run of a serve workload.
func runServeWorkload(cfg runConfig, name string) (*workloadResult, error) {
	res := newResult(name, 0)
	sr, err := bootServe(cfg, res)
	if err != nil {
		return nil, err
	}
	defer sr.close()
	if name == wlLiveUpdate {
		err = sr.runLive()
	} else {
		if err = sr.runClosed(); err == nil {
			err = sr.applySide()
		}
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// runOfflineBuild is one untraced run of offline-build: everything
// in-process through the public API. The builds are the subject; the
// search side phase exists so the workload reports every end-to-end
// metric, measured on the store it just built. probe, when
// the traced run passes one, is replayed on the last build too and its
// per-request median microseconds returned.
func runOfflineBuild(cfg runConfig, probe []request) (*workloadResult, []float64, error) {
	res := newResult(wlOfflineBuild, 0)
	ctx := context.Background()

	var setups []float64
	var db *toposearch.DB
	for i := 0; i < setupSynths; i++ {
		t0 := time.Now()
		d, err := toposearch.Synthetic(cfg.scale, dataSeed)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		db = d
	}
	res.Metrics["setup_s"] = summarize(setups, "s", medianOf)

	// Build until the run length is spent (3 to 6 builds), keeping the
	// previous searcher open so the last two builds can check each
	// other. Every build runs cache-off — the cache plays no part in the
	// offline phase — so the last one serves the side phase directly.
	var builds []float64
	var prev, last *toposearch.Searcher
	start := time.Now()
	for n := 0; n < maxBuilds && (n < minBuilds || time.Since(start) < cfg.duration()); n++ {
		t0 := time.Now()
		s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, cacheOffConfig())
		if err != nil {
			return nil, nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
		res.Attempted++
		if prev != nil {
			prev.Close()
		}
		prev, last = last, s
	}
	defer last.Close()
	res.Metrics["build_s"] = summarize(builds, "s", medianOf)
	res.Metrics["store_mb"] = exact(storeMB(last), "MB", 1)

	// Two independent builds must agree on all seven answers.
	for _, req := range hotMix() {
		res.Attempted++
		a, err := prev.Search(req.query())
		if err != nil {
			return nil, nil, err
		}
		b, err := last.Search(req.query())
		if err != nil {
			return nil, nil, err
		}
		if fmt.Sprint(a.Topologies) != fmt.Sprint(b.Topologies) {
			res.fail("%s: two builds of the same database disagree", req.class)
		}
	}
	prev.Close()

	// Search side phase: the panel, one caller, cache off, panelPasses
	// times, each pass in a fresh seeded order. Not the seven-query mix:
	// uncached, four of its queries cost 0.05-0.09 ms and three cost
	// 1.4-4 ms, so its median request sits on the edge of the cheap
	// cluster and moved 20 % when the machine moved 8 %. And not a seeded
	// draw from the grid: key costs are heavy-tailed (full-top-k-opt means
	// 9 ms against 1-2 ms for the rest, up to 76 ms), so which keys a seed
	// draws alone spreads the rate of a 650-key draw by 14 %. The gated
	// numbers are the medians over the passes, so a burst from a neighbour
	// on the shared host spoils one pass, not the run.
	panel := newPanel(cfg.seconds)
	order := rand.New(rand.NewSource(cfg.seed))
	search := &phaseStats{Name: "side-search"}
	var passP50, passQPS []float64
	runtime.GC() // the closed builds' garbage is set-up, not part of a search
	t0 := time.Now()
	for pass := 0; pass < panelPasses; pass++ {
		var lat []time.Duration
		p0 := time.Now()
		for _, j := range order.Perm(len(panel)) {
			s0 := time.Now()
			_, err := last.Search(panel[j])
			search.Sent++
			if err != nil {
				search.Failed++
				search.firstErr = err.Error()
				continue
			}
			search.OK++
			lat = append(lat, time.Since(s0))
		}
		if len(lat) > 0 {
			passQPS = append(passQPS, float64(len(lat))/time.Since(p0).Seconds())
			passP50 = append(passP50, medianOf(durationsMs(lat)))
		}
		search.lat = append(search.lat, lat...)
	}
	search.Elapsed = time.Since(t0)
	res.addPhase(search)
	res.searchMetrics(search) // the printed tail, over all passes
	res.Metrics["search_p50_ms"] = summarize(passP50, "ms", medianOf)
	res.Metrics["search_qps"] = summarize(passQPS, "1/s", medianOf)

	// The traced run's probe: its pass, replayed untraced on this build.
	var probed []float64
	for _, req := range probe {
		q := req.query()
		var samples []float64
		for rep := 0; rep < coldReps; rep++ {
			s0 := time.Now()
			if _, err := last.Search(q); err != nil {
				return nil, nil, err
			}
			samples = append(samples, us(time.Since(s0)))
		}
		probed = append(probed, medianOf(samples))
	}

	res.finish()
	return res, probed, nil
}
