// Command toposerve runs the toposearch serving daemon: a generated
// Biozon-like database behind an HTTP JSON API, with one pooled
// searcher per entity-set pair, admission control, a result cache and
// live mutation batches.
//
// Usage:
//
//	toposerve [flags]
//
//	-addr            listen address (default :8844)
//	-scale/-seed     synthetic database size and seed
//	-figure3         use the paper's Figure 3 example database
//	-es1/-es2        default entity-set pair (prewarmed at startup)
//	-l/-prune        path-length bound / pruning threshold
//	-workers         worker count for precomputation and queries
//	-cachebytes      result-cache memory bound
//	-max-inflight    admission: concurrent queries per searcher
//	-max-queue       admission: bounded wait queue per searcher
//	-queue-timeout   admission: max queue wait before shedding
//	-default-timeout deadline for requests that send none (0 = none)
//	-max-timeout     cap on client-requested deadlines (0 = uncapped)
//	-compact-every   compact after every n-th refresh round
//	-no-prewarm      skip building the default pair at startup
//
// Endpoints: POST /v1/search, POST /v1/apply (JSONL body, ?sync=1 for
// an inline refresh), GET /v1/stats, GET /metrics (+/statsz,
// /debug/pprof). SIGINT/SIGTERM drain in-flight requests, stop the
// refresh loop and close every searcher before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"toposearch"
	"toposearch/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8844", "listen address")
		scale    = flag.Int("scale", 2, "synthetic database scale")
		seed     = flag.Int64("seed", 42, "generator seed")
		figure3  = flag.Bool("figure3", false, "use the paper's Figure 3 database")
		es1      = flag.String("es1", toposearch.Protein, "default first entity set")
		es2      = flag.String("es2", toposearch.DNA, "default second entity set")
		l        = flag.Int("l", 3, "path length bound")
		prune    = flag.Int("prune", 8, "pruning threshold (-1 disables)")
		workers  = flag.Int("workers", 0, "worker count (0 = all cores)")
		cacheB   = flag.Int64("cachebytes", 0, "result-cache bound in bytes (0 = 64 MiB default, negative disables)")
		maxInfl  = flag.Int("max-inflight", 16, "admission: concurrent queries per searcher (0 = unbounded)")
		maxQueue = flag.Int("max-queue", 64, "admission: bounded wait queue per searcher")
		queueTO  = flag.Duration("queue-timeout", 2*time.Second, "admission: max queue wait before shedding")
		defTO    = flag.Duration("default-timeout", 0, "deadline for requests that send none (0 = none)")
		maxTO    = flag.Duration("max-timeout", 0, "cap on client-requested deadlines (0 = uncapped)")
		compact  = flag.Int("compact-every", 1, "compact after every n-th refresh round (negative disables)")
		noWarm   = flag.Bool("no-prewarm", false, "skip building the default pair at startup")
	)
	flag.Parse()

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	toposearch.SetMetricsEnabled(true)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var db *toposearch.DB
	var err error
	if *figure3 {
		db, err = toposearch.Figure3()
	} else {
		db, err = toposearch.Synthetic(*scale, *seed)
	}
	if err != nil {
		log.Error("database build failed", "err", err.Error())
		os.Exit(1)
	}
	log.Info("database ready", "entities", db.NumEntities(), "relationships", db.NumRelationships())

	sv, err := serve.New(serve.Config{
		DB: db,
		Searcher: toposearch.SearcherConfig{
			MaxLen: *l, PruneThreshold: *prune, MaxCombinations: 4096,
			Parallelism: *workers, CacheBytes: *cacheB,
			MaxInflight: *maxInfl, MaxQueue: *maxQueue, QueueTimeout: *queueTO,
		},
		DefaultES1: *es1, DefaultES2: *es2,
		DefaultTimeout: *defTO, MaxTimeout: *maxTO,
		CompactEvery: *compact,
		Log:          log,
	})
	if err != nil {
		log.Error("server build failed", "err", err.Error())
		os.Exit(1)
	}
	if !*noWarm {
		if err := sv.Warm(ctx, *es1, *es2); err != nil {
			log.Error("prewarm failed", "err", err.Error())
			os.Exit(1)
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: sv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Info("listening", "addr", *addr)

	select {
	case <-ctx.Done():
	case err := <-errCh:
		log.Error("listener failed", "err", err.Error())
		os.Exit(1)
	}

	// Graceful drain: stop accepting, let in-flight requests finish
	// (bounded), then close the pool — each Close drains that
	// searcher's own in-flight queries.
	log.Info("shutting down")
	dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Error("http shutdown", "err", err.Error())
	}
	if err := sv.Shutdown(dctx); err != nil {
		log.Error("server shutdown", "err", err.Error())
		os.Exit(1)
	}
	log.Info("stopped")
}
