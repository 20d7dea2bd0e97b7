package toposearch

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"toposearch/internal/fault"
	"toposearch/internal/obs"
)

// TraceSpan is one node of a per-query trace tree (SearchResult.Trace):
// a named, monotonic-clocked span with integer/string attributes and
// children for the execution stages the query passed through — compile,
// cache lookup/fill, method dispatch, optimizer choice, scan/join
// windows, the ET drain, merges. Render writes the
// text outline `topsearch -trace` prints; the tree also marshals to
// JSON. Its methods are nil-safe, so code may hold a nil *TraceSpan
// and call Child/SetInt/End freely.
type TraceSpan = obs.Span

// SetMetricsEnabled switches the engine's telemetry recording on or
// off, process-wide. Disabled (the default), every instrumented event
// site costs one atomic load — the same discipline as fault injection —
// and the scan/join inner loops carry no instrumentation at all.
// Per-query tracing (SearchQuery.Trace) is independent of this switch.
func SetMetricsEnabled(on bool) { obs.SetEnabled(on) }

// MetricsEnabled reports whether telemetry recording is on.
func MetricsEnabled() bool { return obs.Enabled() }

// MetricsMux returns an http mux serving the engine's observability
// endpoints: /metrics (Prometheus text format v0.0.4), /statsz (JSON
// snapshot) and /debug/pprof/* (CPU, heap, goroutine, ... profiles).
// Mount it in a daemon, or let topsearch serve it via -metrics-addr.
func MetricsMux() *http.ServeMux { return obs.Default().Mux() }

// ServeMetrics listens on addr (e.g. ":9090", "127.0.0.1:0") and serves
// MetricsMux in the background; it enables telemetry recording as a
// side effect. Close the returned server to stop. The returned address
// resolves a ":0" listener.
func ServeMetrics(addr string) (*http.Server, string, error) {
	obs.SetEnabled(true)
	return obs.Default().Serve(addr)
}

// WriteMetricsText writes every metric in Prometheus text exposition
// format.
func WriteMetricsText(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// WriteMetricsJSON writes every metric as an indented JSON snapshot.
func WriteMetricsJSON(w io.Writer) error { return obs.Default().WriteJSON(w) }

// Engine-wide metric families. The per-event families (cache, refresh
// tables) live next to their event sites in
// internal/methods; these are the searcher/DB-level ones.
var (
	obsQueryDur = obs.Default().HistogramVec("toposearch_query_duration_seconds",
		"Search latency by evaluation method and outcome (ok, partial, error, shed).",
		obs.DefLatencyBuckets(), "method", "status")
	obsRefreshDur = obs.Default().HistogramVec("toposearch_refresh_duration_seconds",
		"Searcher.Refresh latency by outcome.", obs.DefLatencyBuckets(), "status")
	obsRefreshEdges = obs.Default().Counter("toposearch_refresh_edges_total",
		"Relationship rows absorbed by Refresh.")
	obsApplyDur = obs.Default().HistogramVec("toposearch_apply_duration_seconds",
		"DB.ApplyBatch latency by outcome.", obs.DefLatencyBuckets(), "status")
	obsApplyMutations = obs.Default().Counter("toposearch_apply_mutations_total",
		"Mutations submitted through DB.ApplyBatch.")
	obsApplyEdges = obs.Default().Counter("toposearch_apply_edges_total",
		"Relationship edges appended to the applied-edge log.")
	obsDeltaBytes = obs.Default().Gauge("toposearch_delta_bytes",
		"Resident bytes of un-compacted write state (delta columns, pending index buffers).")
	obsBuildDur = obs.Default().Histogram("toposearch_build_duration_seconds",
		"Offline phase (NewSearcher) duration.", obs.ExpBuckets(0.01, 2, 14))

	obsSearcherInflight = obs.Default().GaugeVec("toposearch_searcher_inflight",
		"Search calls currently executing, per searcher.", "searcher")
	obsSearcherWaiting = obs.Default().GaugeVec("toposearch_searcher_waiting",
		"Search calls queued for an admission slot, per searcher.", "searcher")
	obsSearcherAdmission = obs.Default().CounterVec("toposearch_searcher_admission_total",
		"Admission outcomes per searcher: admitted, degraded (admitted after waiting in the queue), rejected (shed with ErrOverloaded), canceled (context expired while queued).",
		"searcher", "outcome")
	obsSearcherPanics = obs.Default().CounterVec("toposearch_searcher_panics_contained_total",
		"Panics recovered into EnginePanicError by Search/Refresh, per searcher.", "searcher")
	obsSearcherPartials = obs.Default().CounterVec("toposearch_searcher_partials_total",
		"Deadline-bounded queries that returned a partial result, per searcher.", "searcher")
	obsSearcherCacheBytes = obs.Default().GaugeVec("toposearch_cache_resident_bytes",
		"Result-cache resident bytes, per searcher.", "searcher")
	obsSearcherCacheEntries = obs.Default().GaugeVec("toposearch_cache_resident_entries",
		"Result-cache resident entries, per searcher.", "searcher")

	obsFaultFired = obs.Default().CounterVec("toposearch_fault_fired_total",
		"Fault-injection activations by point name (mirrors fault.Stats; series appear once a chaos run arms the registry).",
		"point")
)

func init() {
	// The fault registry keeps its own counters; mirror them into a
	// family at scrape time instead of instrumenting Point.Hit (whose
	// disabled path must stay a single atomic load).
	obs.Default().RegisterCollector(func() {
		for _, ps := range fault.Stats() {
			obsFaultFired.With(ps.Name).Set(ps.Fired)
		}
	})
}

// searcherMetrics is one searcher's resolved per-series instruments,
// labeled searcher="<es1>-<es2>#<seq>". They replace the ad-hoc
// SearcherStats atomics: Stats() reads these, so the counters cost the
// same one atomic op they always did, whether or not telemetry
// recording is enabled.
type searcherMetrics struct {
	inflight, waiting                      *obs.Gauge
	admitted, rejected, degraded, canceled *obs.Counter
	panics, partials                       *obs.Counter
	cacheBytes, cacheEntries               *obs.Gauge
}

var searcherSeq atomic.Int64

func newSearcherMetrics(es1, es2 string) (string, searcherMetrics) {
	sid := fmt.Sprintf("%s-%s#%d", es1, es2, searcherSeq.Add(1))
	return sid, searcherMetrics{
		inflight:     obsSearcherInflight.With(sid),
		waiting:      obsSearcherWaiting.With(sid),
		admitted:     obsSearcherAdmission.With(sid, "admitted"),
		rejected:     obsSearcherAdmission.With(sid, "rejected"),
		degraded:     obsSearcherAdmission.With(sid, "degraded"),
		canceled:     obsSearcherAdmission.With(sid, "canceled"),
		panics:       obsSearcherPanics.With(sid),
		partials:     obsSearcherPartials.With(sid),
		cacheBytes:   obsSearcherCacheBytes.With(sid),
		cacheEntries: obsSearcherCacheEntries.With(sid),
	}
}

// releaseSearcherMetrics drops a closed searcher's series from the
// exposition. The searcher's own instrument pointers stay valid (Stats
// keeps working after Close); the series just stop being scraped.
func releaseSearcherMetrics(sid string) {
	obsSearcherInflight.Remove(sid)
	obsSearcherWaiting.Remove(sid)
	for _, oc := range []string{"admitted", "rejected", "degraded", "canceled"} {
		obsSearcherAdmission.Remove(sid, oc)
	}
	obsSearcherPanics.Remove(sid)
	obsSearcherPartials.Remove(sid)
	obsSearcherCacheBytes.Remove(sid)
	obsSearcherCacheEntries.Remove(sid)
}
