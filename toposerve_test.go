package toposearch_test

// Integration tests for the toposerve serving layer: an in-process
// daemon on a loopback listener, driven over real HTTP. The nine-method
// equivalence test is the serving analogue of the engine's equivalence
// gates — every method's answer through the wire must be byte-identical
// to a direct library call — and the remaining tests pin the serving
// contract: 429 + Retry-After under admission saturation, 200/partial
// for deadline cuts with partial_ok, 504 without it, 400 validation,
// 503 after shutdown, and a -race client/apply/stats hammer with a
// goroutine-leak check.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"toposearch"
	"toposearch/internal/fault"
	"toposearch/internal/methods"
	"toposearch/internal/serve"
)

// startServeTest boots an in-process daemon over db and returns its
// base URL, the server (for Shutdown-path tests) and a client. Cleanup
// closes the client's connections, the listener and the server.
func startServeTest(t *testing.T, db *toposearch.DB, scfg toposearch.SearcherConfig, cfg serve.Config) (string, *serve.Server, *http.Client) {
	t.Helper()
	cfg.DB = db
	cfg.Searcher = scfg
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	sv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: sv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	client := &http.Client{}
	t.Cleanup(func() {
		client.CloseIdleConnections()
		_ = httpSrv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := sv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	})
	return "http://" + ln.Addr().String(), sv, client
}

// post sends a JSON body and returns status, headers and body bytes.
func post(t *testing.T, client *http.Client, url, contentType, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := client.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, resp.Header, data
}

// searchHTTP posts a /v1/search body and decodes the 200 envelope.
func searchHTTP(t *testing.T, client *http.Client, base, body string) serve.SearchResponse {
	t.Helper()
	code, _, data := post(t, client, base+"/v1/search", "application/json", body)
	if code != http.StatusOK {
		t.Fatalf("search %s: status %d: %s", body, code, data)
	}
	var sr serve.SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("search %s: decoding: %v", body, err)
	}
	return sr
}

// TestServeNineMethodEquivalence drives every evaluation method through
// the daemon and asserts the wire answer byte-identical (as canonical
// JSON) to a direct Searcher.Search with the same query on the same
// database. Caches are disabled on both sides so every run is a full
// method execution.
func TestServeNineMethodEquivalence(t *testing.T) {
	db, err := toposearch.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	scfg := toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 4096, CacheBytes: -1,
	}
	direct, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	base, _, client := startServeTest(t, db, scfg, serve.Config{})

	mix := []string{""}
	mix = append(mix, methods.AllMethods()...)
	for _, m := range mix {
		q := toposearch.SearchQuery{K: 5, Method: m}
		if m == "sql" || m == "full-top" || m == "fast-top" {
			q.K = 0
		}
		body, err := json.Marshal(serve.SearchRequest{K: q.K, Method: q.Method})
		if err != nil {
			t.Fatal(err)
		}
		got := searchHTTP(t, client, base, string(body))
		want, err := direct.Search(q)
		if err != nil {
			t.Fatalf("direct %q: %v", m, err)
		}
		gj, _ := json.Marshal(got.Result)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Errorf("method %q: wire result diverges from direct Search:\n got %s\nwant %s", m, gj, wj)
		}
		if len(got.Result.Topologies) == 0 {
			t.Errorf("method %q: empty result", m)
		}
	}
}

// TestServeApplyRefresh posts a JSONL mutation batch with ?sync=1 and
// asserts the inline refresh makes the new rows visible: the post-apply
// wire answer is byte-identical to a fresh from-scratch searcher built
// on the mutated database (the serving analogue of the engine's
// refresh-equals-rebuild gate). Malformed batches must 400.
func TestServeApplyRefresh(t *testing.T) {
	db, err := toposearch.Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	scfg := toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048, CacheBytes: -1,
	}
	base, _, client := startServeTest(t, db, scfg, serve.Config{})

	query := `{"k":5,"method":"fast-top-k","cons2":[{"column":"type","equals":"mRNA"}]}`
	before := searchHTTP(t, client, base, query)

	batch := `# grow one protein-DNA pair
{"entity":"Protein","id":1960001,"attrs":{"desc":"serve test protein kwsel50"}}

{"entity":"DNA","id":2960001,"attrs":{"type":"mRNA","desc":"serve test dna"}}
{"rel":"encodes","a":1960001,"b":2960001}
`
	code, _, data := post(t, client, base+"/v1/apply?sync=1", "application/x-ndjson", batch)
	if code != http.StatusOK {
		t.Fatalf("apply: status %d: %s", code, data)
	}
	var ar serve.ApplyResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Mutations != 3 || !ar.Synced {
		t.Fatalf("apply response: %+v, want 3 mutations synced", ar)
	}
	if ar.RefreshedEdges["Protein-DNA"] != 1 {
		t.Fatalf("refreshed_edges = %v, want Protein-DNA:1", ar.RefreshedEdges)
	}

	after := searchHTTP(t, client, base, query)
	if bj, aj := fmt.Sprint(before.Result.Topologies), fmt.Sprint(after.Result.Topologies); bj == aj {
		t.Logf("note: batch did not change this query's answer (still valid, but weak)")
	}
	rebuilt, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	want, err := rebuilt.Search(toposearch.SearchQuery{K: 5, Method: "fast-top-k",
		Cons2: []toposearch.Constraint{{Column: "type", Equals: "mRNA"}}})
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(after.Result)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Errorf("post-apply wire answer diverges from a fresh rebuild:\n got %s\nwant %s", gj, wj)
	}

	for _, bad := range []string{
		`{"entity":"Protein","id":1,"rel":"encodes","a":1,"b":2}`, // both
		`{"id": 7}`, // neither
		`{not json`, // malformed
		"",          // empty batch
	} {
		code, _, data := post(t, client, base+"/v1/apply", "application/x-ndjson", bad)
		if code != http.StatusBadRequest {
			t.Errorf("bad batch %q: status %d (%s), want 400", bad, code, data)
		}
	}
}

// TestServeValidation pins the 400 surface: unknown entity sets,
// unknown methods, unknown rankings, bad timeout headers and trailing
// garbage never reach the engine.
func TestServeValidation(t *testing.T) {
	db, err := toposearch.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	scfg := toposearch.SearcherConfig{MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048}
	base, _, client := startServeTest(t, db, scfg, serve.Config{})

	for _, bad := range []string{
		`{"es1":"Nope"}`,
		`{"method":"warp-drive"}`,
		`{"ranking":"best"}`,
		`{"k":-1}`,
		`{"timeout_ms":-5}`,
		`{"unknown_field":1}`,
		`{`,
	} {
		code, _, data := post(t, client, base+"/v1/search", "application/json", bad)
		if code != http.StatusBadRequest {
			t.Errorf("body %s: status %d (%s), want 400", bad, code, data)
		}
		var eb map[string]map[string]string
		if err := json.Unmarshal(data, &eb); err != nil || eb["error"]["code"] == "" {
			t.Errorf("body %s: error envelope missing code: %s", bad, data)
		}
	}
	req, _ := http.NewRequest("POST", base+"/v1/search", strings.NewReader(`{}`))
	req.Header.Set("X-Timeout-Ms", "soon")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad X-Timeout-Ms: status %d, want 400", resp.StatusCode)
	}
}

// TestServeSheddingAndDeadlines covers the load-response surface over
// real HTTP: a slot-holding query (slow cache fill via fault delay)
// saturates MaxInflight=1/MaxQueue=1, so a third request sheds with
// 429 + Retry-After; a deadline-bounded query without partial_ok gets
// the 504 cut; with partial_ok it gets 200 with partial=true.
func TestServeSheddingAndDeadlines(t *testing.T) {
	db, err := toposearch.Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	scfg := toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048,
		MaxInflight: 1, MaxQueue: 1, QueueTimeout: 5 * time.Second,
	}
	base, sv, client := startServeTest(t, db, scfg, serve.Config{})
	if err := sv.Warm(context.Background(), toposearch.Protein, toposearch.DNA); err != nil {
		t.Fatal(err)
	}

	// statsFor polls GET /v1/stats until cond holds on the pair's stats.
	statsFor := func(what string, cond func(st toposearch.SearcherStats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := client.Get(base + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var sr serve.StatsResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				t.Fatalf("stats: %v (%s)", err, data)
			}
			if cond(sr.Searchers["Protein-DNA"].Stats) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats: %s", what, data)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	t.Cleanup(fault.Disable)
	if err := fault.Enable(1, fault.Rule{Point: "cache.fill", Delay: 700 * time.Millisecond, DelayOnly: true}); err != nil {
		t.Fatal(err)
	}

	type result struct {
		code int
		hdr  http.Header
	}
	fire := func(body string) chan result {
		ch := make(chan result, 1)
		go func() {
			resp, err := client.Post(base+"/v1/search", "application/json", strings.NewReader(body))
			if err != nil {
				ch <- result{code: -1}
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ch <- result{code: resp.StatusCode, hdr: resp.Header}
		}()
		return ch
	}

	// Slot holder, then one queued waiter, then the shed request.
	c1 := fire(`{"k":5,"method":"fast-top-k"}`)
	statsFor("slot holder in flight", func(st toposearch.SearcherStats) bool { return st.Inflight == 1 })
	c2 := fire(`{"k":3,"method":"fast-top-k","cons1":[{"column":"desc","keyword":"kwsel15"}]}`)
	statsFor("waiter queued", func(st toposearch.SearcherStats) bool { return st.Waiting == 1 })
	code, hdr, data := post(t, client, base+"/v1/search", "application/json", `{"k":2,"method":"fast-top-k","cons1":[{"column":"desc","keyword":"kwsel85"}]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated daemon: status %d (%s), want 429", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if r1 := <-c1; r1.code != http.StatusOK {
		t.Fatalf("slot holder: status %d", r1.code)
	}
	if r2 := <-c2; r2.code != http.StatusOK {
		t.Fatalf("queued waiter: status %d", r2.code)
	}
	fault.Disable()

	// Deadline cut without partial_ok: the SQL strawman cannot finish in
	// 150ms at this scale, and hard-fails at its deadline -> 504.
	code, _, data = post(t, client, base+"/v1/search", "application/json", `{"k":3,"method":"sql","timeout_ms":150}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline without partial_ok: status %d (%s), want 504", code, data)
	}

	// Deadline cut with partial_ok on an ET plan: the engine returns the
	// witnesses emitted so far -> 200 with partial=true. A delay before
	// the ET drain makes the query reliably outlive its deadline.
	if err := fault.Enable(1, fault.Rule{Point: "methods.et", Delay: 600 * time.Millisecond, DelayOnly: true}); err != nil {
		t.Fatal(err)
	}
	code, _, data = post(t, client, base+"/v1/search", "application/json",
		`{"k":3,"method":"fast-top-k-et","timeout_ms":150,"partial_ok":true}`)
	if code != http.StatusOK {
		t.Fatalf("deadline with partial_ok: status %d (%s), want 200", code, data)
	}
	var sr serve.SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Partial || !sr.Result.Partial {
		t.Fatalf("partial flags not set: envelope %v, result %v", sr.Partial, sr.Result.Partial)
	}
	fault.Disable()

	// X-Timeout-Ms header is an alternative to the body field.
	req, _ := http.NewRequest("POST", base+"/v1/search", strings.NewReader(`{"k":3,"method":"sql"}`))
	req.Header.Set("X-Timeout-Ms", "150")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("header deadline: status %d, want 504", resp.StatusCode)
	}
}

// TestServeShutdown pins the drain contract: after Shutdown begins,
// new requests get 503 with the shutting_down code, and Shutdown
// itself completes (loop stopped, searchers closed).
func TestServeShutdown(t *testing.T) {
	db, err := toposearch.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	scfg := toposearch.SearcherConfig{MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048}
	base, sv, client := startServeTest(t, db, scfg, serve.Config{})
	_ = searchHTTP(t, client, base, `{"k":3}`)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	code, _, data := post(t, client, base+"/v1/search", "application/json", `{"k":3}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown request: status %d (%s), want 503", code, data)
	}
	if !strings.Contains(string(data), "shutting_down") {
		t.Errorf("post-shutdown error body missing shutting_down: %s", data)
	}
}

// TestServeConcurrentHammer is the -race gate of the serving layer:
// concurrent search clients, JSONL applies (sync and async), stats
// scrapes and metrics scrapes against one daemon, then a clean
// shutdown with a goroutine-leak check.
func TestServeConcurrentHammer(t *testing.T) {
	// Registered before the server starts, so the LIFO cleanup order runs
	// the leak check after the server cleanup has torn everything down.
	baseline := goroutineBaseline()
	t.Cleanup(func() { assertNoGoroutineLeak(t, baseline) })
	db, err := toposearch.Synthetic(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	scfg := toposearch.SearcherConfig{
		MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048,
		MaxInflight: 4, MaxQueue: 8, QueueTimeout: 2 * time.Second,
	}
	base, sv, client := startServeTest(t, db, scfg, serve.Config{})
	if err := sv.Warm(context.Background(), toposearch.Protein, toposearch.DNA); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`{"method":"fast-top"}`,
		`{"k":5,"method":"fast-top-k"}`,
		`{"k":3,"method":"full-top-k-et","cons1":[{"column":"desc","keyword":"kwsel50"}]}`,
		`{"k":4,"method":"fast-top-k-opt","cons2":[{"column":"type","equals":"mRNA"}]}`,
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				resp, err := client.Post(base+"/v1/search", "application/json",
					strings.NewReader(queries[(w+i)%len(queries)]))
				if err != nil {
					errCh <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errCh <- fmt.Errorf("worker %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			qs := ""
			if i%2 == 0 {
				qs = "?sync=1"
			}
			p, d := 1970001+i, 2970001+i
			batch := fmt.Sprintf(`{"entity":"Protein","id":%d,"attrs":{"desc":"hammer %d"}}
{"entity":"DNA","id":%d,"attrs":{"type":"mRNA"}}
{"rel":"encodes","a":%d,"b":%d}
`, p, i, d, p, d)
			resp, err := client.Post(base+"/v1/apply"+qs, "application/x-ndjson", strings.NewReader(batch))
			if err != nil {
				errCh <- err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("apply %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, path := range []string{"/v1/stats", "/metrics"} {
				resp, err := client.Get(base + path)
				if err != nil {
					errCh <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
				if path == "/metrics" && !bytes.Contains(body, []byte("toposerve_http_requests_total")) {
					errCh <- fmt.Errorf("/metrics missing toposerve_http series")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
