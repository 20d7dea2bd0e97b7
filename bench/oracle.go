package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"toposearch"
)

// oracle is the in-process, cache-off searcher built from the same
// scale and data seed as the daemon: every answer the daemon gives must
// equal a direct Search on it. Building it also yields one build_s
// sample and the exact store_mb.
type oracle struct {
	db      *toposearch.DB
	s       *toposearch.Searcher
	buildS  float64
	storeMB float64
}

func cacheOffConfig() toposearch.SearcherConfig {
	cfg := toposearch.DefaultSearcherConfig()
	cfg.CacheBytes = -1
	return cfg
}

func newOracle(scale int) (*oracle, error) {
	db, err := toposearch.Synthetic(scale, dataSeed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	s, err := db.NewSearcherContext(context.Background(), toposearch.Protein, toposearch.DNA, cacheOffConfig())
	if err != nil {
		return nil, err
	}
	return &oracle{db: db, s: s, buildS: time.Since(t0).Seconds(), storeMB: storeMB(s)}, nil
}

// storeMB is the precomputed-table footprint the searcher holds
// (LeftTops + ExcpTops are what the Fast-Top family adds to AllTops).
func storeMB(s *toposearch.Searcher) float64 {
	sp := s.Space()
	return float64(sp.AllTopsBytes+sp.LeftTopsBytes+sp.ExcpBytes) / 1e6
}

// wireResponse is the part of the /v1/search envelope the oracle reads.
type wireResponse struct {
	Result struct {
		Topologies []toposearch.TopologyResult
	} `json:"result"`
}

// check compares one wire response with a direct Search: same
// topologies in the same order, each with the same ID, score,
// structure and frequency (the rest of TopologyResult is derived from
// the structure and compared too, since equality is on the whole
// struct).
func (o *oracle) check(req request, body []byte) error {
	var got wireResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: undecodable response: %w", req.class, err)
	}
	want, err := o.s.Search(req.query())
	if err != nil {
		return fmt.Errorf("%s: oracle search: %w", req.class, err)
	}
	if len(got.Result.Topologies) != len(want.Topologies) {
		return fmt.Errorf("%s %s: daemon returned %d topologies, oracle %d",
			req.class, req.body(), len(got.Result.Topologies), len(want.Topologies))
	}
	for i, w := range want.Topologies {
		if g := got.Result.Topologies[i]; g != w {
			return fmt.Errorf("%s %s: topology %d: daemon %+v, oracle %+v", req.class, req.body(), i, g, w)
		}
	}
	return nil
}

// absorb replays update batches into the oracle database and refreshes
// the oracle searcher, so it answers for the same state the daemon
// reached through /v1/apply.
func (o *oracle) absorb(batches []growthBatch) error {
	for _, b := range batches {
		if err := o.db.ApplyBatch(b.updates); err != nil {
			return fmt.Errorf("oracle apply: %w", err)
		}
	}
	if _, err := o.s.Refresh(); err != nil {
		return fmt.Errorf("oracle refresh: %w", err)
	}
	return nil
}
