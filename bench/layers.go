package main

// layers.go is the only file of the benchmark that imports
// toposearch/internal/...: the traced run's ladder, which times calls
// into each layer's public functions from outside. A refactor that
// changes a signature used here needs its own benchmark issue (see
// README.md); the end-to-end driver in the other files keeps working
// regardless, because it speaks only the wire API and the root package.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"toposearch"
	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/delta"
	"toposearch/internal/engine"
	"toposearch/internal/graph"
	"toposearch/internal/methods"
	"toposearch/internal/ranking"
	"toposearch/internal/relstore"
	"toposearch/internal/serve"
)

// Rung names, top to bottom. The search ladder replays one request on
// each; a layer's self time is its rung minus the rung below.
const (
	rungHTTP      = "serve.http"           // loopback HTTP to an in-process http.Server
	rungHandler   = "serve.handler"        // Handler().ServeHTTP on a recorder
	rungHit       = "searcher.search_hit"  // Searcher.SearchContext, cache hit
	rungMiss      = "searcher.search_miss" // Searcher.SearchContext, first touch (miss + fill)
	rungHTTPMiss  = "serve.http_miss"      // loopback HTTP, first touch
	rungCacheOff  = "searcher.search_off"  // Searcher.SearchContext, cache off
	rungRun       = "methods.run"          // methods.Store.RunContext
	rungNewSearch = "toposearch.NewSearcherContext"
	rungBuild     = "methods.BuildStoreFromGraph"
)

// daemonSearcherConfig is the searcher template cmd/toposerve builds
// from its default flags.
func daemonSearcherConfig(cacheBytes int64) toposearch.SearcherConfig {
	return toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 4096, CacheBytes: cacheBytes,
		MaxInflight: 16, MaxQueue: 64, QueueTimeout: 2 * time.Second,
	}
}

// storeConfig is the offline configuration NewSearcherContext derives
// from DefaultSearcherConfig.
func storeConfig() methods.StoreConfig {
	return methods.StoreConfig{
		Opts:           core.Options{MaxLen: 3, MaxCombinations: 4096, MaxPathsPerClass: 64},
		PruneThreshold: 8,
		Scores:         ranking.Schemes(),
	}
}

// ladder holds the three database instances the rungs run on. They are
// generated from the same scale and data seed and receive the same
// batches in the same order, so a request costs the same work on each:
// a holds the in-process daemon, b the public searchers, c the raw
// store for the internal rungs.
type ladder struct {
	in  ladderInput
	ctx context.Context

	srv    *serve.Server
	http   *httptest.Server
	client *http.Client
	log    *os.File

	dbB         *toposearch.DB
	cached, off *toposearch.Searcher

	rel     *relstore.DB
	sg      *graph.SchemaGraph
	g       *graph.Graph
	store   *methods.Store
	applier *delta.Applier
	starts  int // entity-set-1 start nodes the offline computation walks

	samples map[string][]float64 // offline and update rung samples, by rung name
	out     ladderOutput
}

func (l *ladder) span(name, class string, parent int, fn func() error) (int, time.Duration, error) {
	return l.in.rec.time(name, class, parent, fn)
}

// timed records one offline/update rung sample in seconds.
func (l *ladder) timed(name string, parent int, fn func() error) (int, error) {
	id, d, err := l.span(name, "", parent, fn)
	if err != nil {
		return id, fmt.Errorf("%s: %w", name, err)
	}
	l.samples[name] = append(l.samples[name], d.Seconds())
	return id, nil
}

func (l *ladder) median(name string) float64 { return medianOf(l.samples[name]) }

// rungMetric reports a rung's median scaled into unit.
func (l *ladder) rungMetric(name, unit string, scale float64) metric {
	v := make([]float64, len(l.samples[name]))
	for i, s := range l.samples[name] {
		v[i] = s * scale
	}
	return summarize(v, unit, medianOf)
}

// runLadder builds the three instances (recording the offline ladder
// as it goes), replays the search pass and the update sequence down
// their rungs, probes the engine and storage primitives, and derives
// the per-layer metrics.
func runLadder(in ladderInput) (*ladderOutput, error) {
	l := &ladder{in: in, ctx: context.Background(), samples: map[string][]float64{},
		out: ladderOutput{metrics: map[string]metric{}}}
	// The daemon records engine telemetry; so do the rungs that stand in
	// for it. offline-build is the library path, which leaves it off.
	toposearch.SetMetricsEnabled(in.servePath())
	defer toposearch.SetMetricsEnabled(false)
	defer l.close()
	if err := l.buildInstances(); err != nil {
		return nil, err
	}
	for p := 1; p < in.offlinePasses; p++ {
		if err := l.offlinePass(); err != nil {
			return nil, err
		}
	}
	if err := l.searchLadder(); err != nil {
		return nil, err
	}
	if err := l.primitives(); err != nil {
		return nil, err
	}
	if err := l.updateLadder(); err != nil {
		return nil, err
	}
	l.offlineMetrics()
	l.out.newSearcherS = l.samples[rungNewSearch]
	return &l.out, nil
}

func (l *ladder) close() {
	if l.http != nil {
		l.http.Close()
	}
	if l.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = l.srv.Shutdown(sctx) // the ladder is over; a drain error changes nothing
		cancel()
	}
	for _, s := range []*toposearch.Searcher{l.cached, l.off} {
		if s != nil {
			s.Close()
		}
	}
	if l.log != nil {
		l.log.Close()
	}
}

// buildInstances builds instances a, b and c. Every build is a sample
// of the offline ladder: serve.Warm and the two NewSearcherContext
// calls are its top rung, and c is built rung by rung.
func (l *ladder) buildInstances() error {
	cacheBytes := int64(0)
	if l.in.workload == wlServeCold {
		cacheBytes = coldCacheBytes
	}
	scale := l.in.cfg.scale

	// a: the daemon in-process, logging one JSON line per request to a
	// file as the subprocess does.
	dbA, err := toposearch.Synthetic(scale, dataSeed)
	if err != nil {
		return err
	}
	l.log, err = os.Create(filepath.Join(l.in.cfg.root, outDir, "inprocess-"+l.in.workload+".log"))
	if err != nil {
		return err
	}
	l.srv, err = serve.New(serve.Config{DB: dbA, Searcher: daemonSearcherConfig(cacheBytes),
		Log: slog.New(slog.NewJSONHandler(l.log, nil))})
	if err != nil {
		return err
	}
	if _, err := l.timed(rungNewSearch, 0, func() error {
		return l.srv.Warm(l.ctx, toposearch.Protein, toposearch.DNA)
	}); err != nil {
		return err
	}
	l.http = httptest.NewServer(l.srv.Handler())
	l.client = newClient(1)

	// b: the public searchers, cached (daemon template) and cache-off.
	if l.dbB, err = toposearch.Synthetic(scale, dataSeed); err != nil {
		return err
	}
	if _, err := l.timed(rungNewSearch, 0, func() (err error) {
		l.cached, err = l.dbB.NewSearcherContext(l.ctx, toposearch.Protein, toposearch.DNA, daemonSearcherConfig(cacheBytes))
		return err
	}); err != nil {
		return err
	}
	if _, err := l.timed(rungNewSearch, 0, func() (err error) {
		l.off, err = l.dbB.NewSearcherContext(l.ctx, toposearch.Protein, toposearch.DNA, cacheOffConfig())
		return err
	}); err != nil {
		return err
	}

	// c: the raw store.
	gcfg := biozon.DefaultConfig(scale)
	gcfg.Seed = dataSeed
	l.rel = biozon.Generate(gcfg)
	l.sg = biozon.SchemaGraph()
	l.applier = delta.NewApplier(l.rel, l.sg)
	return l.offlinePass()
}

// offlinePass runs the offline ladder below NewSearcherContext on
// instance c: graph.Build, then BuildStoreFromGraph, then what it is
// made of one by one: core.Compute -> Prune -> Materialize* -> warming. The store of the last pass serves the lower
// search rungs.
func (l *ladder) offlinePass() error {
	cfg := storeConfig()
	es1, es2 := toposearch.Protein, toposearch.DNA
	if _, err := l.timed("graph.Build", 0, func() (err error) {
		l.g, err = graph.Build(l.rel, l.sg)
		return err
	}); err != nil {
		return err
	}
	var res *core.Result
	var pr *core.Pruned
	build, err := l.timed(rungBuild, 0, func() (err error) {
		l.store, err = methods.BuildStoreFromGraph(l.ctx, l.rel, l.g, l.sg, es1, es2, cfg)
		return err
	})
	if err != nil {
		return err
	}
	// Exact sizes of the offline phase's output, before any batch grows it.
	l.starts = l.store.T1.NumRows()
	l.out.metrics["core.topologies"] = exact(float64(l.store.TopInfo.NumRows()), "count", 1)
	l.out.metrics["core.alltops_rows"] = exact(float64(l.store.AllTops.NumRows()), "count", 1)
	if _, err := l.timed("core.Compute", build, func() (err error) {
		res, err = core.Compute(l.ctx, l.g, l.sg, [][2]string{{es1, es2}}, cfg.Opts)
		return err
	}); err != nil {
		return err
	}
	if _, err := l.timed("core.Prune", build, func() error {
		pr = res.Prune(cfg.PruneThreshold)
		return nil
	}); err != nil {
		return err
	}
	// Materialize into a scratch catalog: the real one holds the store's
	// tables under the same names.
	scratch := relstore.NewDB()
	var fresh []*relstore.Table
	if _, err := l.timed("core.Materialize", build, func() error {
		all, err := res.MaterializeAllTops(scratch, es1, es2)
		if err != nil {
			return err
		}
		left, excp, err := pr.Materialize(scratch, es1, es2)
		if err != nil {
			return err
		}
		info, err := res.MaterializeTopInfo(scratch, es1, es2, cfg.Scores)
		fresh = []*relstore.Table{all, left, excp, info}
		return err
	}); err != nil {
		return err
	}
	// Index warming, replayed on the fresh tables through the same public
	// calls warmIndexes makes: table statistics, then the entity weight
	// profile (one AllTops.E1 probe per entity). Timed directly because
	// BuildStoreFromGraph minus the rungs above is the difference of two
	// multi-second numbers and drowns in their run-to-run noise.
	_, err = l.timed("methods.warm", build, func() error {
		for _, t := range fresh {
			t.Stats()
		}
		idx, err := fresh[0].CreateHashIndex("E1")
		if err != nil {
			return err
		}
		t1 := l.store.T1
		var weight int64
		for pos := int32(0); pos < int32(t1.NumRows()); pos++ {
			weight += 1 + int64(len(idx.LookupInt(t1.IntAt(pos, t1.Schema.KeyCol))))
		}
		if weight == 0 {
			return fmt.Errorf("empty weight profile")
		}
		return nil
	})
	return err
}

// discardRecorder is the handler rung's ResponseWriter: it keeps the
// status and drops the body. httptest.ResponseRecorder buffers the body
// instead, and growing that buffer for a 36 KB answer costs more than
// the socket write it stands in for, which turned serve.http_self_us
// negative on the large classes.
type discardRecorder struct {
	header http.Header
	code   int
}

func (w *discardRecorder) Header() http.Header         { return w.header }
func (w *discardRecorder) WriteHeader(code int)        { w.code = code }
func (w *discardRecorder) Write(p []byte) (int, error) { return len(p), nil }

// compile turns a request into the store-level query, as
// Searcher.compileQuery does.
func (l *ladder) compile(r request) (string, methods.Query, error) {
	pred := func(t *relstore.Table, cs []constraint) (relstore.Pred, error) {
		var ps []relstore.Pred
		for _, c := range cs {
			var p relstore.Pred
			var err error
			if c.Keyword != "" {
				p, err = relstore.Contains(t.Schema, c.Column, c.Keyword)
			} else {
				p, err = relstore.Eq(t.Schema, c.Column, relstore.StrVal(c.Equals))
			}
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		return relstore.And(ps...), nil
	}
	p1, err := pred(l.store.T1, r.Cons1)
	if err != nil {
		return "", methods.Query{}, err
	}
	p2, err := pred(l.store.T2, r.Cons2)
	if err != nil {
		return "", methods.Query{}, err
	}
	q := methods.Query{Pred1: p1, Pred2: p2, K: r.K, Ranking: r.Ranking}
	method := r.Method
	if q.K > 0 {
		if q.Ranking == "" {
			q.Ranking = toposearch.RankDomain
		}
		if method == "" {
			method = methods.MethodFastTopOpt
		}
	} else if method == "" {
		method = methods.MethodFastTop
	}
	return method, q, nil
}

// searchLadder replays each request of the pass: one first touch over
// HTTP and on the cached searcher (both misses), then reps repetitions
// on every rung. Per-request rung medians feed the per-class rows and
// the per-layer metrics, which are means over the pass.
func (l *ladder) searchLadder() error {
	type perRequest map[string]float64 // rung -> median microseconds
	var rows []perRequest
	var respBytes, rowsScanned, indexProbes, items int64
	var optQueries, optET int
	handler := l.srv.Handler()
	url := l.http.URL + "/v1/search"

	var lastResp int64 // body size of the latest HTTP response
	doHTTP := func(body []byte) error {
		resp, err := l.client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		lastResp, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("in-process daemon answered %s", resp.Status)
		}
		return err
	}
	// Open the connection first, as the daemon's readiness probe does,
	// so no first touch pays for the TCP handshake.
	if err := doHTTP([]byte(`{"k":1}`)); err != nil {
		return err
	}
	// Each request of the pass, prepared once for every rung.
	type rung struct {
		name string
		fn   func() error
	}
	type replay struct {
		req   request
		body  []byte
		rungs []rung
		row   perRequest
	}
	var replays []*replay
	for _, req := range l.in.pass {
		body, query := req.body(), req.query()
		method, mq, err := l.compile(req)
		if err != nil {
			return err
		}
		rp := &replay{req: req, body: body, row: perRequest{}}
		rp.rungs = []rung{
			{rungHTTP, func() error { return doHTTP(body) }},
			{rungHandler, func() error {
				hr, err := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
				if err != nil {
					return err
				}
				rec := discardRecorder{header: http.Header{}, code: http.StatusOK}
				handler.ServeHTTP(&rec, hr)
				if rec.code != http.StatusOK {
					return fmt.Errorf("handler answered %d", rec.code)
				}
				return nil
			}},
			{rungHit, func() error { _, err := l.cached.SearchContext(l.ctx, query); return err }},
			{rungCacheOff, func() error { _, err := l.off.SearchContext(l.ctx, query); return err }},
			{rungRun, func() error { _, err := l.store.RunContext(l.ctx, method, mq); return err }},
		}
		// Exact engine counts of this request, from one run of its own.
		res, err := l.store.RunContext(l.ctx, method, mq)
		if err != nil {
			return fmt.Errorf("%s %s: %w", rungRun, body, err)
		}
		rowsScanned += res.Counters.RowsScanned
		indexProbes += res.Counters.IndexProbes
		items += int64(len(res.Items))
		if strings.HasSuffix(method, "-opt") {
			optQueries++
			if res.Plan.String() != "regular" {
				optET++
			}
		}
		replays = append(replays, rp)
	}

	// First touches: the miss path end to end and at the searcher.
	for _, rp := range replays {
		_, d, err := l.span(rungHTTPMiss, rp.req.class, 0, rp.rungs[0].fn)
		if err != nil {
			return fmt.Errorf("%s %s: %w", rungHTTPMiss, rp.body, err)
		}
		rp.row[rungHTTPMiss] = us(d)
		respBytes += lastResp
		if _, d, err = l.span(rungMiss, rp.req.class, 0, rp.rungs[2].fn); err != nil {
			return fmt.Errorf("%s %s: %w", rungMiss, rp.body, err)
		}
		rp.row[rungMiss] = us(d)
	}
	// Then rung by rung, the pass replayed reps times on each: requests
	// rotate while the instance stays the same, as on the daemon, so a
	// rung's tables stay as warm in the CPU caches as they would there.
	// (Rotating rungs instead would walk three copies of the data and
	// time every scan-heavy query cold.) parents links each span to the
	// same request and repetition one rung up.
	parents := make([][]int, len(replays))
	for i := range parents {
		parents[i] = make([]int, l.in.reps)
	}
	for ri := range replays[0].rungs {
		samples := make([][]float64, len(replays))
		for rep := 0; rep < l.in.reps; rep++ {
			for i, rp := range replays {
				rg := rp.rungs[ri]
				id, d, err := l.span(rg.name, rp.req.class, parents[i][rep], rg.fn)
				if err != nil {
					return fmt.Errorf("%s %s: %w", rg.name, rp.body, err)
				}
				samples[i] = append(samples[i], us(d))
				parents[i][rep] = id
			}
		}
		for i, rp := range replays {
			rp.row[rp.rungs[ri].name] = medianOf(samples[i])
		}
	}
	for _, rp := range replays {
		rows = append(rows, rp.row)
	}

	// Per-request self times, then means over the pass.
	n := len(rows)
	col := func(f func(perRequest) float64) []float64 {
		out := make([]float64, n)
		for i, r := range rows {
			out[i] = f(r)
		}
		return out
	}
	httpSelf := col(func(r perRequest) float64 { return r[rungHTTP] - r[rungHandler] })
	handlerSelf := col(func(r perRequest) float64 { return r[rungHandler] - r[rungHit] })
	hit := col(func(r perRequest) float64 { return r[rungHit] })
	fillSelf := col(func(r perRequest) float64 { return r[rungMiss] - r[rungCacheOff] })
	missSelf := col(func(r perRequest) float64 { return r[rungCacheOff] - r[rungRun] })
	run := col(func(r perRequest) float64 { return r[rungRun] })
	l.out.firstTouchUs = col(func(r perRequest) float64 { return r[rungHTTPMiss] })
	l.out.warmUs = col(func(r perRequest) float64 { return r[rungHTTP] })
	l.out.cacheOffUs = col(func(r perRequest) float64 { return r[rungCacheOff] })

	samplesPerRung := n * l.in.reps
	m := l.out.metrics
	mean := func(name string, v []float64) {
		m[name] = metric{Value: meanOf(v), Unit: "us", N: samplesPerRung}
	}
	mean("serve.http_self_us", httpSelf)
	mean("serve.handler_self_us", handlerSelf)
	mean("searcher.hit_us", hit)
	mean("searcher.miss_self_us", missSelf)
	mean("methods.run_us", run)
	m["searcher.fill_self_us"] = metric{Value: meanOf(fillSelf), Unit: "us", N: n}
	m["serve.resp_bytes"] = exact(float64(respBytes)/float64(n), "B", n)
	m["engine.rows_scanned"] = exact(float64(rowsScanned), "count", n)
	m["engine.index_probes"] = exact(float64(indexProbes), "count", n)
	perResult := 0.0
	if items > 0 {
		perResult = float64(rowsScanned+indexProbes) / float64(items)
	}
	m["engine.work_per_result"] = exact(perResult, "count", int(items))
	etShare := 0.0
	if optQueries > 0 {
		etShare = float64(optET) / float64(optQueries)
	}
	m["optimizer.et_plan_share"] = exact(etShare, "ratio", optQueries)

	// The rungs must add up: a first touch over HTTP should cost what
	// its layers' self times sum to.
	missPath := sum(httpSelf) + sum(handlerSelf) + sum(fillSelf) + sum(missSelf) + sum(run)
	m["ladder.sum_ratio"] = exact(missPath/sum(l.out.firstTouchUs), "ratio", n)

	// Share of a request's time spent in methods.Run at the hit ratio
	// the daemon measured: hits stop at the searcher, misses go down.
	h := l.in.hitRatio
	serveSelf := sum(httpSelf) + sum(handlerSelf)
	below := (1 - h) * (sum(missSelf) + sum(run))
	if l.in.servePath() {
		below += serveSelf + h*sum(hit) + (1-h)*sum(fillSelf)
	}
	m["methods.run_share"] = exact((1-h)*sum(run)/below, "ratio", n)

	// Per-class rows: mean of the per-request medians.
	byClass := map[string][]perRequest{}
	var order []string
	for i, req := range l.in.pass {
		if _, ok := byClass[req.class]; !ok {
			order = append(order, req.class)
		}
		byClass[req.class] = append(byClass[req.class], rows[i])
	}
	for _, class := range order {
		cr := classRow{Class: class, N: len(byClass[class]) * l.in.reps, Rungs: map[string]float64{}}
		for rung := range byClass[class][0] {
			var v []float64
			for _, r := range byClass[class] {
				v = append(v, r[rung])
			}
			cr.Rungs[rung] = meanOf(v)
		}
		l.out.classes = append(l.out.classes, cr)
	}
	return nil
}

// primitives times the engine and storage operations the plans are made
// of, on the store's own tables.
func (l *ladder) primitives() error {
	const reps = 30
	t1, all := l.store.T1, l.store.AllTops
	pred, err := relstore.Contains(t1.Schema, "desc", tokMedium)
	if err != nil {
		return err
	}
	n := int32(t1.NumRows())
	idx, err := all.CreateHashIndex("E1")
	if err != nil {
		return err
	}
	var scan, probe, join []float64
	matched := 0
	for r := 0; r < reps; r++ {
		_, d, _ := l.span("relstore.EvalAt", "", 0, func() error {
			for pos := int32(0); pos < n; pos++ {
				if pred.EvalAt(t1, pos) {
					matched++
				}
			}
			return nil
		})
		scan = append(scan, float64(d.Nanoseconds())/float64(n))
		_, d, _ = l.span("relstore.LookupInt", "", 0, func() error {
			for pos := int32(0); pos < n; pos++ {
				matched += len(idx.LookupInt(t1.IntAt(pos, t1.Schema.KeyCol)))
			}
			return nil
		})
		probe = append(probe, float64(d.Nanoseconds())/float64(n))
		_, d, err := l.span("engine.scanjoin", "", 0, func() error {
			var c engine.Counters
			ij, err := engine.NewIndexJoin(engine.NewScan(t1, "P", pred, &c), t1.Schema.KeyCol, all, "A", "E1", nil, &c)
			if err != nil {
				return err
			}
			tid := len(ij.Columns()) - 1 // AllTops is (E1, E2, TID)
			op := engine.NewDistinct(ij, []int{tid})
			if err := op.Open(); err != nil {
				return err
			}
			for {
				_, ok, err := op.Next()
				if err != nil {
					return err
				}
				if !ok {
					return op.Close()
				}
				matched++
			}
		})
		if err != nil {
			return err
		}
		join = append(join, us(d))
	}
	if matched == 0 {
		return fmt.Errorf("primitives: predicate %s matched nothing", pred)
	}
	m := l.out.metrics
	m["relstore.scan_ns_row"] = summarize(scan, "ns", medianOf)
	m["relstore.probe_ns"] = summarize(probe, "ns", medianOf)
	m["engine.scanjoin_us"] = summarize(join, "us", medianOf)
	m["relstore.alltops_bytes_row"] = exact(float64(all.ApproxBytes())/float64(all.NumRows()), "B", all.NumRows())
	return nil
}

// updateLadder replays the batch sequence on all three instances:
// POST /v1/apply?sync=1 on the in-process daemon, ApplyBatch +
// Searcher.Refresh on the public searchers, and Applier.Apply ->
// AffectedStarts -> RefreshDiff on the raw store; then compacts.
func (l *ladder) updateLadder() error {
	modes := map[string]int{}
	var affectedRatio []float64
	for _, b := range l.in.batches {
		top, err := l.timed("serve.apply", 0, func() error {
			resp, err := l.client.Post(l.http.URL+"/v1/apply?sync=1", "application/json", bytes.NewReader(b.jsonl))
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-process daemon answered %s", resp.Status)
			}
			return err
		})
		if err != nil {
			return err
		}
		if _, err := l.timed("toposearch.ApplyBatch", top, func() error { return l.dbB.ApplyBatch(b.updates) }); err != nil {
			return err
		}
		refresh, err := l.timed("toposearch.Refresh", top, func() error { _, err := l.cached.Refresh(); return err })
		if err != nil {
			return err
		}
		if _, err := l.off.Refresh(); err != nil {
			return err
		}
		var applied *delta.Applied
		if _, err := l.timed("delta.Apply", refresh, func() (err error) {
			l.g, applied, err = l.applier.Apply(l.g, delta.Batch(b.updates))
			return err
		}); err != nil {
			return err
		}
		var affected map[graph.NodeID]bool
		if _, err := l.timed("delta.AffectedStarts", refresh, func() error {
			affected = delta.AffectedStarts(l.g, l.store.ES1, l.store.Cfg.Opts.EffectiveMaxLen(), applied.Edges)
			return nil
		}); err != nil {
			return err
		}
		affectedRatio = append(affectedRatio, float64(len(affected))/float64(l.store.T1.NumRows()))
		var diff *methods.RefreshDiff
		if _, err := l.timed("methods.RefreshDiff", refresh, func() (err error) {
			l.store, diff, err = l.store.RefreshDiff(l.ctx, l.g, affected)
			return err
		}); err != nil {
			return err
		}
		for _, td := range []core.TableDiff{diff.AllTops, diff.LeftTops, diff.ExcpTops, diff.TopInfo} {
			modes[td.Mode]++
		}
	}
	if _, err := l.timed("toposearch.Compact", 0, l.dbB.Compact); err != nil {
		return err
	}
	m := l.out.metrics
	m["serve.apply_ms"] = l.rungMetric("serve.apply", "ms", 1e3)
	m["delta.apply_us"] = l.rungMetric("toposearch.ApplyBatch", "us", 1e6)
	m["searcher.refresh_ms"] = l.rungMetric("toposearch.Refresh", "ms", 1e3)
	m["delta.frontier_us"] = l.rungMetric("delta.AffectedStarts", "us", 1e6)
	m["methods.refresh_ms"] = l.rungMetric("methods.RefreshDiff", "ms", 1e3)
	m["relstore.compact_ms"] = l.rungMetric("toposearch.Compact", "ms", 1e3)
	m["delta.affected_starts_ratio"] = summarize(affectedRatio, "ratio", medianOf)
	tables := 4 * len(l.in.batches)
	for _, mode := range []string{"reused", "spliced", "rebuilt"} {
		m["methods.refresh_tables_"+mode] = exact(float64(modes[mode]), "count", tables)
	}
	return nil
}

// offlineMetrics derives the offline per-layer metrics from the rung
// samples collected while the instances were built.
func (l *ladder) offlineMetrics() {
	m := l.out.metrics
	m["graph.build_ms"] = l.rungMetric("graph.Build", "ms", 1e3)
	m["core.compute_ms"] = l.rungMetric("core.Compute", "ms", 1e3)
	m["core.prune_ms"] = l.rungMetric("core.Prune", "ms", 1e3)
	m["core.materialize_ms"] = l.rungMetric("core.Materialize", "ms", 1e3)
	m["methods.warm_ms"] = l.rungMetric("methods.warm", "ms", 1e3)
	m["methods.build_store_ms"] = l.rungMetric(rungBuild, "ms", 1e3)
	m["core.starts_per_s"] = metric{Value: float64(l.starts) / l.median("core.Compute"), Unit: "1/s", N: l.starts}
}
