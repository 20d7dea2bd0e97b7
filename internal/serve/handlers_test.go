package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"toposearch"
	"toposearch/internal/serve"
)

var testSearcherConfig = toposearch.SearcherConfig{MaxLen: 3, PruneThreshold: 8, MaxCombinations: 2048}

// newTestServer builds a daemon over the paper's Figure 3 database.
func newTestServer(t *testing.T, db *toposearch.DB) *serve.Server {
	t.Helper()
	sv, err := serve.New(serve.Config{DB: db, Searcher: testSearcherConfig,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := sv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return sv
}

// postSearch sends body to POST /v1/search through the route table.
func postSearch(sv *serve.Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search", strings.NewReader(body)))
	return rec
}

// TestServeSearchDecoderRejects pins the /v1/search decoder's bounds:
// a body over the 1 MiB cap, a second JSON value after the object, and
// an unknown field (two fields of a deleted execution mode are not part
// of the wire request) are all 400s that never reach the searcher pool.
func TestServeSearchDecoderRejects(t *testing.T) {
	db, err := toposearch.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	sv := newTestServer(t, db)
	// Valid JSON once the leading whitespace is skipped: only the size
	// cap can reject it.
	oversize := strings.Repeat(" ", 1<<20) + `{"k":3}`
	for name, body := range map[string]string{
		"oversize":       oversize,
		"trailing value": `{"k":3} {"k":4}`,
		"trailing junk":  `{"k":3} x`,
		"speculation":    `{"speculation":2}`,
		"shards":         `{"shards":2}`,
	} {
		rec := postSearch(sv, body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, rec.Code, rec.Body.String())
			continue
		}
		var env struct {
			Error struct{ Code string } `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "bad_request" {
			t.Errorf("%s: error envelope %q (%v), want code bad_request", name, rec.Body.String(), err)
		}
	}
}

// TestServeSearchMatchesSearcher pins that a valid body answers 200
// with a result identical to an embedded Searcher.Search of the same
// query, trailing whitespace after the object included.
func TestServeSearchMatchesSearcher(t *testing.T) {
	db, err := toposearch.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	sv := newTestServer(t, db)
	rec := postSearch(sv, `{"k":3,"method":"fast-top-k-et","cons1":[{"column":"desc","keyword":"enzyme"}]}`+"\n\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var resp struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	s, err := db.NewSearcher(toposearch.Protein, toposearch.DNA, testSearcherConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, err := s.Search(toposearch.SearchQuery{K: 3, Method: "fast-top-k-et",
		Cons1: []toposearch.Constraint{{Column: "desc", Keyword: "enzyme"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Topologies) == 0 {
		t.Fatal("embedded search found no topologies; the comparison would be vacuous")
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Result, wantJSON) {
		t.Fatalf("wire result differs from Searcher.Search:\n got %s\nwant %s", resp.Result, wantJSON)
	}
}
