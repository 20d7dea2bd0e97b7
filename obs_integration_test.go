// Observability integration tests: traced execution must be
// byte-identical to untraced execution at parallelism 1, 4 and 8, the
// /metrics endpoint must serve valid Prometheus text covering every
// engine family, metric writes must be race-free under concurrent
// Search/ApplyBatch/Refresh with live scrapes, and SearcherStats must
// stay a faithful snapshot of the registry-backed counters through
// Close (CI runs these via -run Obs).
package toposearch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"toposearch"
	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/fault"
	"toposearch/internal/methods"
	"toposearch/internal/obs"
	"toposearch/internal/ranking"
)

// buildObsStore builds the third-sized randomized store the trace
// equivalence grid runs over (same shape as the spec equivalence
// harness).
func buildObsStore(t *testing.T, seed int64) (*methods.Store, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := biozon.DefaultConfig(1)
	cfg.Seed = seed
	for _, n := range []*int{
		&cfg.Proteins, &cfg.DNAs, &cfg.Unigenes, &cfg.Interactions,
		&cfg.Families, &cfg.Pathways, &cfg.Structures,
		&cfg.Encodes, &cfg.UniEncodes, &cfg.UniContains,
		&cfg.PInteract, &cfg.DInteract,
		&cfg.Belongs, &cfg.Manifest, &cfg.PathElements,
		&cfg.SelfRegulating, &cfg.Triangles,
	} {
		*n = (*n + 2) / 3
	}
	db := biozon.Generate(cfg)
	st, err := methods.BuildStore(context.Background(), db, biozon.SchemaGraph(),
		biozon.Protein, biozon.DNA, methods.StoreConfig{
			Opts:           core.DefaultOptions(),
			PruneThreshold: 2 + rng.Intn(5),
			Scores:         ranking.Schemes(),
		})
	if err != nil {
		t.Fatal(err)
	}
	return st, rng
}

// TestObsTraceEquivalence is the acceptance gate for tracing: at every
// grid point, running a query with a trace span attached must return
// items, counters and plan byte-identical to the untraced run — spans
// only observe, they never steer execution.
func TestObsTraceEquivalence(t *testing.T) {
	st, rng := buildObsStore(t, 5)
	for qi, q := range randomQueries(t, rng, st, 2) {
		for _, m := range methods.AllMethods() {
			mq := q
			if m == methods.MethodSQL || m == methods.MethodFullTop || m == methods.MethodFastTop {
				mq.K, mq.Ranking = 0, ""
			}
			for _, par := range []int{1, 4, 8} {
				plain := mq
				plain.Parallelism = par
				want, err := st.Run(m, plain)
				if err != nil {
					t.Fatalf("q%d %s p=%d untraced: %v", qi, m, par, err)
				}
				traced := plain
				root := obs.NewTrace("test")
				traced.Trace = root
				got, err := st.Run(m, traced)
				if err != nil {
					t.Fatalf("q%d %s p=%d traced: %v", qi, m, par, err)
				}
				root.End()
				tag := fmt.Sprintf("q%d %s k=%d p=%d", qi, m, mq.K, par)
				if gi, wi := itemsString(got.Items), itemsString(want.Items); gi != wi {
					t.Errorf("%s: traced items %s diverge from untraced %s", tag, gi, wi)
				}
				if got.Counters != want.Counters {
					t.Errorf("%s: traced counters %+v diverge from untraced %+v", tag, got.Counters, want.Counters)
				}
				if got.Plan != want.Plan {
					t.Errorf("%s: traced plan %v diverges from untraced %v", tag, got.Plan, want.Plan)
				}
				if len(root.Children()) == 0 {
					t.Errorf("%s: trace recorded no spans", tag)
				}
			}
		}
	}
}

// TestObsPublicTracedSearch exercises SearchQuery.Trace through the
// public API: identical topologies, a populated span tree, and working
// text/JSON renderings.
func TestObsPublicTracedSearch(t *testing.T) {
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, q := range []toposearch.SearchQuery{
		{K: 5, Method: "fast-top-k-et"},
		{K: 3, Method: "fast-top-k-opt", Cons2: []toposearch.Constraint{{Column: "type", Equals: "mRNA"}}},
		{Method: "fast-top"},
	} {
		// Traced first: the untraced repeat then answers from the cache,
		// proving the cached value never carries the filler's trace.
		tq := q
		tq.Trace = true
		traced, err := s.SearchContext(ctx, tq)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.SearchContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(plain.Topologies) != fmt.Sprint(traced.Topologies) {
			t.Fatalf("%s: traced topologies diverge from untraced", q.Method)
		}
		if plain.Trace != nil {
			t.Fatalf("%s: untraced result carries a trace", q.Method)
		}
		if traced.Trace == nil || len(traced.Trace.Children()) == 0 {
			t.Fatalf("%s: traced result has no span tree", q.Method)
		}
		var text bytes.Buffer
		traced.Trace.Render(&text)
		if !strings.Contains(text.String(), "search") || !strings.Contains(text.String(), "method ") {
			t.Fatalf("%s: trace rendering missing expected spans:\n%s", q.Method, text.String())
		}
		data, err := json.Marshal(traced.Trace)
		if err != nil {
			t.Fatal(err)
		}
		var tree struct {
			Name     string            `json:"name"`
			Children []json.RawMessage `json:"children"`
		}
		if err := json.Unmarshal(data, &tree); err != nil {
			t.Fatal(err)
		}
		if tree.Name != "search" || len(tree.Children) == 0 {
			t.Fatalf("%s: trace JSON malformed: %s", q.Method, data)
		}
	}
	// The cached repeat answers identically and still traces its own
	// lookup.
	q := toposearch.SearchQuery{K: 5, Method: "fast-top-k-et", Trace: true}
	first, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.SearchContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("repeat query missed the result cache")
	}
	if fmt.Sprint(first.Topologies) != fmt.Sprint(again.Topologies) {
		t.Fatal("cached traced result diverges")
	}
	if again.Trace == nil {
		t.Fatal("cached hit lost its per-caller trace")
	}
}

// validateExposition is a minimal Prometheus text-format (v0.0.4)
// checker: every sample line parses, belongs to a family declared by a
// preceding # TYPE line, histogram buckets are cumulative and end in
// +Inf, and series within a family are unique. Returns sample values
// by full series name.
func validateExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	samples := map[string]string{}
	types := map[string]string{}
	current := ""
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				types[parts[2]] = parts[3]
				current = parts[2]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		series, value := line[:sp], line[sp+1:]
		if value == "" {
			t.Fatalf("line %d: empty value in %q", ln+1, line)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label set in %q", ln+1, line)
			}
			name = series[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if types[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: series %q has no # TYPE declaration", ln+1, line)
		}
		if current != "" && base != current {
			t.Fatalf("line %d: series %q interleaves into family %q", ln+1, line, current)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, line)
		}
		samples[series] = value
	}
	return samples
}

// TestObsMetricsEndpoint drives a full workload — search, batch apply,
// incremental refresh, a never-firing fault arming — with recording
// enabled, then scrapes GET /metrics and checks the exposition is
// valid and covers every engine family the issue demands.
func TestObsMetricsEndpoint(t *testing.T) {
	toposearch.SetMetricsEnabled(true)
	defer toposearch.SetMetricsEnabled(false)
	if err := fault.Enable(11, fault.Rule{Point: "cache.fill", After: 1 << 50}); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()

	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048,
		Parallelism: 4, MaxInflight: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, q := range []toposearch.SearchQuery{
		{K: 5, Method: "fast-top-k-et"},
		{K: 5, Method: "fast-top-k-et"}, // cache hit
		{Method: "fast-top"},
		{K: 3, Method: "fast-top-k-opt"},
	} {
		if _, err := s.SearchContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ApplyBatch([]toposearch.Update{
		toposearch.InsertEntity(toposearch.Protein, 4_910_001, map[string]string{"desc": "obs endpoint protein kwsel50"}),
		toposearch.InsertEntity(toposearch.DNA, 5_910_001, map[string]string{"type": "mRNA", "desc": "obs endpoint dna"}),
		toposearch.InsertRelationship("encodes", 4_910_001, 5_910_001),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RefreshContext(ctx); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(toposearch.MetricsMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	samples := validateExposition(t, string(body))

	for _, family := range []string{
		"toposearch_query_duration_seconds_count", // searcher latency
		"toposearch_searcher_admission_total",     // admission control
		"toposearch_cache_events_total",           // result cache
		"toposearch_cache_resident_bytes",         // cache footprint
		"toposearch_refresh_duration_seconds_sum", // refresh latency
		"toposearch_refresh_tables_total",         // diff materializer
		"toposearch_apply_mutations_total",        // batch apply
		"toposearch_delta_bytes",                  // write-state footprint
		"toposearch_fault_fired_total",            // fault injection
		"toposearch_build_duration_seconds_count", // offline phase
	} {
		found := false
		for series := range samples {
			if strings.HasPrefix(series, family) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if v := samples[`toposearch_cache_events_total{event="hit"}`]; v == "0" || v == "" {
		t.Errorf("cache hit counter not incremented: %q", v)
	}
	if v := samples["toposearch_refresh_edges_total"]; v == "0" || v == "" {
		t.Errorf("refresh edge counter not incremented: %q", v)
	}

	// /statsz serves the same registry as JSON.
	resp, err = http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("/statsz returned no metric families")
	}
	// /debug/pprof answers.
	resp, err = http.Get(srv.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/goroutine: %d", resp.StatusCode)
	}
}

// TestObsConcurrentScrapeHammer races searches, batch applies,
// incremental refreshes and /metrics scrapes with recording enabled —
// the -race gate over every metric write site.
func TestObsConcurrentScrapeHammer(t *testing.T) {
	defer assertNoGoroutineLeak(t, goroutineBaseline())
	toposearch.SetMetricsEnabled(true)
	defer toposearch.SetMetricsEnabled(false)
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 13)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	queries := []toposearch.SearchQuery{
		{K: 5, Method: "fast-top-k-et", Trace: true},
		{K: 3, Method: "fast-top-k-opt", Cons2: []toposearch.Constraint{{Column: "type", Equals: "mRNA"}}},
		{Method: "fast-top"},
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := queries[w%len(queries)]
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.SearchContext(ctx, q); err != nil {
					t.Errorf("search during scrape hammer: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := toposearch.WriteMetricsText(&buf); err != nil {
				t.Errorf("scrape during hammer: %v", err)
				return
			}
			if err := toposearch.WriteMetricsJSON(io.Discard); err != nil {
				t.Errorf("json snapshot during hammer: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		p := int64(3_920_000 + i)
		d := int64(4_920_000 + i)
		if err := db.ApplyBatch([]toposearch.Update{
			toposearch.InsertEntity(toposearch.Protein, p, map[string]string{"desc": fmt.Sprintf("obs hammer protein %d kwsel50", i)}),
			toposearch.InsertEntity(toposearch.DNA, d, map[string]string{"type": "mRNA", "desc": "obs hammer dna"}),
			toposearch.InsertRelationship("encodes", p, d),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RefreshContext(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestObsSearcherStatsLifecycle checks satellite 1: SearcherStats is a
// faithful snapshot of the registry-backed counters, the searcher's
// labeled series appear in the exposition while it lives, and Close
// retires them (while Stats keeps answering).
func TestObsSearcherStatsLifecycle(t *testing.T) {
	toposearch.SetMetricsEnabled(true)
	defer toposearch.SetMetricsEnabled(false)
	ctx := context.Background()
	db, err := toposearch.Synthetic(1, 17)
	if err != nil {
		t.Fatal(err)
	}

	scrapeSIDs := func() map[string]bool {
		var buf bytes.Buffer
		if err := toposearch.WriteMetricsText(&buf); err != nil {
			t.Fatal(err)
		}
		sids := map[string]bool{}
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, "toposearch_searcher_inflight{searcher=\"") {
				continue
			}
			rest := strings.TrimPrefix(line, "toposearch_searcher_inflight{searcher=\"")
			if i := strings.IndexByte(rest, '"'); i >= 0 {
				sids[rest[:i]] = true
			}
		}
		return sids
	}

	before := scrapeSIDs()
	s, err := db.NewSearcherContext(ctx, toposearch.Protein, toposearch.DNA, toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, MaxInflight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sid string
	for id := range scrapeSIDs() {
		if !before[id] {
			sid = id
		}
	}
	if sid == "" {
		t.Fatal("new searcher registered no labeled series")
	}
	if !strings.HasPrefix(sid, toposearch.Protein+"-"+toposearch.DNA+"#") {
		t.Fatalf("searcher series id %q has unexpected shape", sid)
	}

	for i := 0; i < 3; i++ {
		if _, err := s.SearchContext(ctx, toposearch.SearchQuery{K: 3, Method: "fast-top-k-opt"}); err != nil {
			t.Fatal(err)
		}
	}

	// Cancelled-while-queued: both admission slots are held by fills
	// sleeping at the injected cache.fill delay, a third query queues,
	// and its context is cancelled. The "canceled" outcome must count it
	// — the silent-exit path used to return without touching any
	// admission counter, so queued cancellations vanished from the
	// Admitted + Rejected accounting.
	if err := fault.Enable(1, fault.Rule{Point: "cache.fill", Delay: 400 * time.Millisecond, DelayOnly: true}); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		q := toposearch.SearchQuery{K: 2, Method: "fast-top-k",
			Cons1: []toposearch.Constraint{{Column: "desc", Keyword: fmt.Sprintf("kwsel%d", 15+35*i)}}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.SearchContext(ctx, q); err != nil {
				t.Errorf("slot-holding search: %v", err)
			}
		}()
	}
	waitFor := func(what string, cond func(toposearch.SearcherStats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(s.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, s.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("both slots held", func(st toposearch.SearcherStats) bool { return st.Inflight == 2 })
	cctx, cancel := context.WithCancel(ctx)
	queuedErr := make(chan error, 1)
	go func() {
		_, err := s.SearchContext(cctx, toposearch.SearchQuery{K: 1, Method: "fast-top-k"})
		queuedErr <- err
	}()
	waitFor("third query queued", func(st toposearch.SearcherStats) bool { return st.Waiting == 1 })
	cancel()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-while-queued query: got %v, want context.Canceled", err)
	}
	wg.Wait()
	fault.Disable()

	st := s.Stats()
	if st.Admitted != 5 {
		t.Fatalf("Stats().Admitted = %d, want 5", st.Admitted)
	}
	if st.Canceled != 1 {
		t.Fatalf("Stats().Canceled = %d, want 1", st.Canceled)
	}
	if st.Inflight != 0 || st.Waiting != 0 {
		t.Fatalf("Stats() reports %d inflight / %d waiting after quiescence", st.Inflight, st.Waiting)
	}
	var buf bytes.Buffer
	if err := toposearch.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	admitted := fmt.Sprintf("toposearch_searcher_admission_total{searcher=%q,outcome=\"admitted\"} 5", sid)
	if !strings.Contains(buf.String(), admitted) {
		t.Fatalf("exposition missing %q", admitted)
	}
	canceled := fmt.Sprintf("toposearch_searcher_admission_total{searcher=%q,outcome=\"canceled\"} 1", sid)
	if !strings.Contains(buf.String(), canceled) {
		t.Fatalf("exposition missing %q", canceled)
	}

	s.Close()
	if after := scrapeSIDs(); after[sid] {
		t.Fatalf("series for %q survived Close", sid)
	}
	if st := s.Stats(); st.Admitted != 5 || st.Canceled != 1 {
		t.Fatalf("Stats() after Close = %d admitted / %d canceled, want 5 / 1", st.Admitted, st.Canceled)
	}
}
