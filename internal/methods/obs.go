package methods

import "toposearch/internal/obs"

// Engine-level metric families on the obs default registry. Every
// increment site is gated on obs.Enabled() (one atomic load when
// telemetry is off) and sits outside the scan/join inner loops:
// cache and refresh events fire once per lookup / table, never per
// row.
var (
	obsCacheEvents = obs.Default().CounterVec("toposearch_cache_events_total",
		"Result-cache events by kind.", "event")
	obsCacheHit       = obsCacheEvents.With("hit")
	obsCacheMiss      = obsCacheEvents.With("miss")
	obsCacheEvict     = obsCacheEvents.With("eviction")
	obsCacheInval     = obsCacheEvents.With("invalidated")
	obsCacheFillErr   = obsCacheEvents.With("fill_error")
	obsCacheCollapsed = obsCacheEvents.With("collapsed")
	obsCacheSkipStale = obsCacheEvents.With("skipped_stale")

	obsRefreshTables = obs.Default().CounterVec("toposearch_refresh_tables_total",
		"Refresh materializations by topology table and diff mode (reused, spliced, rebuilt).",
		"table", "mode")
)
