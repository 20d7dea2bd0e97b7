package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"toposearch"
	"toposearch/internal/methods"
)

// maxApplyBytes caps a /v1/apply request body (the JSONL parser's own
// per-line cap still applies inside it).
const maxApplyBytes = 64 << 20

// maxSearchBytes caps a /v1/search request body: one JSON object of a
// few constraints is far below it.
const maxSearchBytes = 1 << 20

// Constraint is the wire form of toposearch.Constraint.
type Constraint struct {
	Column  string `json:"column"`
	Keyword string `json:"keyword,omitempty"`
	Equals  string `json:"equals,omitempty"`
}

// SearchRequest is the POST /v1/search body. es1/es2 default to the
// server's configured pair; everything else mirrors
// toposearch.SearchQuery. A timeout may come from the body
// (timeout_ms) or the X-Timeout-Ms header (the header wins); it bounds
// the request context AND becomes the query's Deadline, so with
// partial_ok the daemon answers 200 with partial=true instead of 504.
type SearchRequest struct {
	ES1       string       `json:"es1,omitempty"`
	ES2       string       `json:"es2,omitempty"`
	K         int          `json:"k,omitempty"`
	Ranking   string       `json:"ranking,omitempty"`
	Method    string       `json:"method,omitempty"`
	Cons1     []Constraint `json:"cons1,omitempty"`
	Cons2     []Constraint `json:"cons2,omitempty"`
	TimeoutMs int64        `json:"timeout_ms,omitempty"`
	PartialOK bool         `json:"partial_ok,omitempty"`
	Trace     bool         `json:"trace,omitempty"`
}

// SearchResponse is the POST /v1/search response. Result is the
// engine's answer verbatim — byte-identical to an embedded
// Searcher.Search call with the same query.
type SearchResponse struct {
	ES1       string                   `json:"es1"`
	ES2       string                   `json:"es2"`
	ElapsedUS int64                    `json:"elapsed_us"`
	Partial   bool                     `json:"partial"`
	Result    *toposearch.SearchResult `json:"result"`
}

// ApplyResponse is the POST /v1/apply response. RefreshedEdges is
// present only on ?sync=1 calls, which run the refresh round inline;
// otherwise the background loop folds the batch in shortly after.
type ApplyResponse struct {
	Mutations      int            `json:"mutations"`
	ElapsedUS      int64          `json:"elapsed_us"`
	Synced         bool           `json:"synced"`
	RefreshedEdges map[string]int `json:"refreshed_edges,omitempty"`
}

// SearcherStatus is one pool entry's slice of GET /v1/stats.
type SearcherStatus struct {
	Topologies int                      `json:"topologies"`
	Pruned     int                      `json:"pruned"`
	Stats      toposearch.SearcherStats `json:"stats"`
	Cache      methods.CacheStats       `json:"cache"`
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	UptimeSec     float64                   `json:"uptime_sec"`
	Entities      int                       `json:"entities"`
	Relationships int                       `json:"relationships"`
	EntitySets    []string                  `json:"entity_sets"`
	Searchers     map[string]SearcherStatus `json:"searchers"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Site    string `json:"site,omitempty"`
	} `json:"error"`
}

// Handler returns the daemon's full route table: the /v1 API plus the
// engine's observability mux (/metrics, /statsz, /debug/pprof).
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/search", sv.instrument("search", sv.handleSearch))
	mux.Handle("POST /v1/apply", sv.instrument("apply", sv.handleApply))
	mux.Handle("GET /v1/stats", sv.instrument("stats", sv.handleStats))
	mm := toposearch.MetricsMux()
	mux.Handle("/metrics", mm)
	mux.Handle("/statsz", mm)
	mux.Handle("/debug/pprof/", mm)
	return mux
}

// statusWriter captures the status code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the serving-layer cross-cutting
// concerns: shutdown refusal, in-flight accounting (Shutdown drains
// it), request metrics and one structured log record per request.
func (sv *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sv.shuttingDown() {
			writeError(w, http.StatusServiceUnavailable, "shutting_down",
				errors.New("daemon is shutting down"), "")
			return
		}
		sv.inflight.Add(1)
		defer sv.inflight.Done()
		obsHTTPInflight.Add(1)
		defer obsHTTPInflight.Add(-1)
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(t0)
		obsHTTPRequests.With(route, strconv.Itoa(sw.code)).Inc()
		obsHTTPDur.With(route).Observe(elapsed.Seconds())
		sv.log.Info("request", "route", route, "code", sw.code,
			"elapsed_us", elapsed.Microseconds(), "remote", r.RemoteAddr)
	})
}

// writeError writes the JSON error envelope. retryAfter, when
// non-empty, becomes a Retry-After header (429 shedding).
func writeError(w http.ResponseWriter, status int, code string, err error, retryAfter string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = err.Error()
	var pe *toposearch.EnginePanicError
	if errors.As(err, &pe) {
		body.Error.Site = pe.Site
	}
	w.Header().Set("Content-Type", "application/json")
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeEngineError maps an engine error onto the serving contract:
// admission shed -> 429 + Retry-After, contained panic -> 500 carrying
// the containment site, deadline -> 504, client cancellation -> 499.
func writeEngineError(w http.ResponseWriter, err error) {
	var pe *toposearch.EnginePanicError
	switch {
	case errors.Is(err, toposearch.ErrOverloaded):
		writeError(w, http.StatusTooManyRequests, "overloaded", err, "1")
	case errors.As(err, &pe):
		writeError(w, http.StatusInternalServerError, "panic_contained", err, "")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", err, "")
	case errors.Is(err, context.Canceled):
		// Client went away; 499 mirrors the common reverse-proxy code.
		writeError(w, 499, "client_closed_request", err, "")
	default:
		writeError(w, http.StatusBadRequest, "bad_request", err, "")
	}
}

// decodeSearch parses and validates the request body against the
// engine's vocabulary, so malformed queries 400 before touching the
// pool. The body must be exactly one JSON object of at most
// maxSearchBytes with no unknown fields.
func (sv *Server) decodeSearch(w http.ResponseWriter, r *http.Request) (SearchRequest, toposearch.SearchQuery, error) {
	var req SearchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSearchBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, toposearch.SearchQuery{}, fmt.Errorf("decoding body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, toposearch.SearchQuery{}, errors.New("decoding body: trailing data after the JSON object")
	}
	if req.ES1 == "" {
		req.ES1 = sv.cfg.DefaultES1
	}
	if req.ES2 == "" {
		req.ES2 = sv.cfg.DefaultES2
	}
	if err := sv.validPair(req.ES1, req.ES2); err != nil {
		return req, toposearch.SearchQuery{}, err
	}
	if req.K < 0 {
		return req, toposearch.SearchQuery{}, fmt.Errorf("k must be >= 0, got %d", req.K)
	}
	if req.Method != "" {
		ok := false
		for _, m := range methods.AllMethods() {
			if m == req.Method {
				ok = true
				break
			}
		}
		if !ok {
			return req, toposearch.SearchQuery{}, fmt.Errorf("unknown method %q (have %v)", req.Method, methods.AllMethods())
		}
	}
	switch req.Ranking {
	case "", toposearch.RankFreq, toposearch.RankRare, toposearch.RankDomain:
	default:
		return req, toposearch.SearchQuery{}, fmt.Errorf("unknown ranking %q (freq|rare|domain)", req.Ranking)
	}
	if hdr := r.Header.Get("X-Timeout-Ms"); hdr != "" {
		ms, err := strconv.ParseInt(hdr, 10, 64)
		if err != nil || ms < 0 {
			return req, toposearch.SearchQuery{}, fmt.Errorf("invalid X-Timeout-Ms %q", hdr)
		}
		req.TimeoutMs = ms
	}
	if req.TimeoutMs < 0 {
		return req, toposearch.SearchQuery{}, fmt.Errorf("timeout_ms must be >= 0, got %d", req.TimeoutMs)
	}
	q := toposearch.SearchQuery{
		K:         req.K,
		Ranking:   req.Ranking,
		Method:    req.Method,
		PartialOK: req.PartialOK,
		Trace:     req.Trace,
	}
	for _, c := range req.Cons1 {
		q.Cons1 = append(q.Cons1, toposearch.Constraint{Column: c.Column, Keyword: c.Keyword, Equals: c.Equals})
	}
	for _, c := range req.Cons2 {
		q.Cons2 = append(q.Cons2, toposearch.Constraint{Column: c.Column, Keyword: c.Keyword, Equals: c.Equals})
	}
	return req, q, nil
}

// timeout resolves the request's effective deadline: the client's ask
// clamped to MaxTimeout, or DefaultTimeout when it sent none.
func (sv *Server) timeout(reqMs int64) time.Duration {
	d := time.Duration(reqMs) * time.Millisecond
	if d == 0 {
		d = sv.cfg.DefaultTimeout
	}
	if sv.cfg.MaxTimeout > 0 && (d == 0 || d > sv.cfg.MaxTimeout) {
		d = sv.cfg.MaxTimeout
	}
	return d
}

func (sv *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, q, err := sv.decodeSearch(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err, "")
		return
	}
	s, err := sv.searcher(r.Context(), req.ES1, req.ES2)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "build_failed", err, "")
		return
	}
	ctx := r.Context()
	if d := sv.timeout(req.TimeoutMs); d > 0 {
		q.Deadline = d
		// With partial_ok the engine's own deadline cut must win the
		// race against the transport context (a context kill is a hard
		// 504, the engine cut a 200 with partial=true), so the context
		// gets slack beyond the query deadline.
		slack := d
		if q.PartialOK {
			slack = d + d/2 + 100*time.Millisecond
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, slack)
		defer cancel()
	}
	t0 := time.Now()
	res, err := s.SearchContext(ctx, q)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(SearchResponse{
		ES1: req.ES1, ES2: req.ES2,
		ElapsedUS: time.Since(t0).Microseconds(),
		Partial:   res.Partial,
		Result:    res,
	})
}

func (sv *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxApplyBytes)
	ups, err := ParseBatch(body, "body")
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_batch", err, "")
		return
	}
	if len(ups) == 0 {
		writeError(w, http.StatusBadRequest, "bad_batch", errors.New("empty batch"), "")
		return
	}
	t0 := time.Now()
	if err := sv.db.ApplyBatch(ups); err != nil {
		var pe *toposearch.EnginePanicError
		if errors.As(err, &pe) {
			writeError(w, http.StatusInternalServerError, "panic_contained", err, "")
		} else {
			writeError(w, http.StatusBadRequest, "apply_failed", err, "")
		}
		return
	}
	resp := ApplyResponse{Mutations: len(ups)}
	if r.URL.Query().Get("sync") != "" {
		// Inline refresh round: when this returns, every pooled searcher
		// answers against the new rows (tests and scripted clients).
		resp.RefreshedEdges = sv.refreshAll(r.Context())
		resp.Synced = true
	} else {
		sv.kickRefresh()
	}
	resp.ElapsedUS = time.Since(t0).Microseconds()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (sv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeSec:     time.Since(sv.start).Seconds(),
		Entities:      sv.db.NumEntities(),
		Relationships: sv.db.NumRelationships(),
		EntitySets:    sv.db.EntitySets(),
		Searchers:     make(map[string]SearcherStatus),
	}
	for key, s := range sv.searchers() {
		resp.Searchers[key[0]+"-"+key[1]] = SearcherStatus{
			Topologies: s.TopologyCount(),
			Pruned:     s.PrunedCount(),
			Stats:      s.Stats(),
			Cache:      s.CacheStats(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
