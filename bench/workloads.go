package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"toposearch"
)

// The four workloads, by the names later issues refer to.
const (
	wlServeHot     = "serve-hot"
	wlServeCold    = "serve-cold"
	wlLiveUpdate   = "live-update"
	wlOfflineBuild = "offline-build"
)

var workloadNames = []string{wlServeHot, wlServeCold, wlLiveUpdate, wlOfflineBuild}

// dataSeed fixes the generated database. The run's -seed drives only
// the request streams: a different database per seed moves build time
// by ±25% and the topology count by ±20% (measured at scale 3), which
// would drown every bound in data variance instead of code variance.
const dataSeed = 42

// Entity ID namespaces and vocabulary of the generated database — the
// bench's own wire-form copy, so the end-to-end driver imports nothing
// from toposearch/internal.
const (
	baseProtein = 1_000_000
	baseDNA     = 2_000_000
	baseUnigene = 3_000_000

	tokSelective   = "kwsel15"
	tokMedium      = "kwsel50"
	tokUnselective = "kwsel85"
	tokEnzyme      = "enzyme"
)

// constraint and request are the wire form of POST /v1/search.
type constraint struct {
	Column  string `json:"column"`
	Keyword string `json:"keyword,omitempty"`
	Equals  string `json:"equals,omitempty"`
}

type request struct {
	K       int          `json:"k,omitempty"`
	Ranking string       `json:"ranking,omitempty"`
	Method  string       `json:"method,omitempty"`
	Cons1   []constraint `json:"cons1,omitempty"`
	Cons2   []constraint `json:"cons2,omitempty"`

	// class groups requests for per-class reporting: the query name on
	// the seven-query mix, the method on the cold grid.
	class string
}

func (r request) body() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain strings and ints cannot fail to marshal
	}
	return b
}

// query is the same request as a direct library call, for the oracle
// and the in-process rungs.
func (r request) query() toposearch.SearchQuery {
	conv := func(cs []constraint) []toposearch.Constraint {
		var out []toposearch.Constraint
		for _, c := range cs {
			out = append(out, toposearch.Constraint{Column: c.Column, Keyword: c.Keyword, Equals: c.Equals})
		}
		return out
	}
	return toposearch.SearchQuery{K: r.K, Ranking: r.Ranking, Method: r.Method,
		Cons1: conv(r.Cons1), Cons2: conv(r.Cons2)}
}

func kw(tok string) []constraint { return []constraint{{Column: "desc", Keyword: tok}} }

// hotMix is the recorded seven-query mix (internal/experiments'
// cacheQueryMix) in wire form.
func hotMix() []request {
	return []request{
		{class: "all-topologies"},
		{class: "top5-domain", K: 5},
		{class: "top3-freq", K: 3, Ranking: toposearch.RankFreq},
		{class: "top10-et-selective", K: 10, Method: "full-top-k-et", Cons1: kw(tokSelective)},
		{class: "top5-medium-mrna", K: 5, Cons1: kw(tokMedium),
			Cons2: []constraint{{Column: "type", Equals: "mRNA"}}},
		{class: "fasttop-unselective", Method: "fast-top", Cons2: kw(tokUnselective)},
		{class: "top8-rare-selective", K: 8, Ranking: toposearch.RankRare, Cons1: kw(tokSelective)},
	}
}

// The cold grid: {subset of four tokens on cons1} x {same on cons2} x
// {DNA type none/mRNA/genomic/EST} x k in 0..20 x ranking x the eight
// non-SQL methods valid for that k. k = 0 admits only the two
// all-results methods (ranking unused); k > 0 admits all eight under
// each of the three rankings. The SQL strawman takes seconds per query
// and is excluded.
var (
	gridTokens   = []string{tokSelective, tokMedium, tokUnselective, tokEnzyme}
	gridTypes    = []string{"", "mRNA", "genomic", "EST"}
	gridRankings = []string{toposearch.RankFreq, toposearch.RankRare, toposearch.RankDomain}
	gridAllK     = []string{"full-top", "fast-top"}
	gridMethods  = []string{"full-top", "fast-top", "full-top-k", "fast-top-k",
		"full-top-k-et", "fast-top-k-et", "full-top-k-opt", "fast-top-k-opt"}
)

const (
	gridMaxK    = 20
	gridPerCell = 2 + gridMaxK*3*8 // requests per predicate cell
	gridCells   = 16 * 16 * 4
	gridSize    = gridCells * gridPerCell
)

// gridRequest decodes grid index i (0 <= i < gridSize) into a request.
// Distinct indices give distinct cache keys.
func gridRequest(i int) request {
	cell, r := i/gridPerCell, i%gridPerCell
	var req request
	subset := func(mask int) []constraint {
		var cs []constraint
		for b, tok := range gridTokens {
			if mask&(1<<b) != 0 {
				cs = append(cs, constraint{Column: "desc", Keyword: tok})
			}
		}
		return cs
	}
	req.Cons1 = subset(cell & 15)
	req.Cons2 = subset((cell >> 4) & 15)
	if typ := gridTypes[cell>>8]; typ != "" {
		req.Cons2 = append(req.Cons2, constraint{Column: "type", Equals: typ})
	}
	if r < 2 {
		req.Method = gridAllK[r]
	} else {
		r -= 2
		req.K = 1 + r/24
		req.Ranking = gridRankings[(r%24)/8]
		req.Method = gridMethods[r%8]
	}
	req.class = req.Method
	return req
}

// coldWalk is a seeded permutation of the grid, walked without
// replacement: client c of n takes positions c, c+n, c+2n, ...
type coldWalk struct{ perm []int }

func newColdWalk(seed int64) *coldWalk {
	return &coldWalk{perm: rand.New(rand.NewSource(seed)).Perm(gridSize)}
}

// at returns the request at walk position pos; ok is false once the
// walk is exhausted (a repeat would be a cache hit and falsify the
// workload, so callers stop instead).
func (w *coldWalk) at(pos int) (request, bool) {
	if pos >= len(w.perm) {
		return request{}, false
	}
	return gridRequest(w.perm[pos]), true
}

// The panel is offline-build's search side phase: panelPerSecond keys
// per second of run length, a fixed draw from the grid (the data seed's
// walk) whatever the run's seed, which chooses only the order of each
// pass — as it does on the seven-query mix. The same keys on every run
// are the same work on every run.
const (
	panelPerSecond = 60
	panelPasses    = 5
)

func newPanel(seconds int) []toposearch.SearchQuery {
	walk := newColdWalk(dataSeed)
	panel := make([]toposearch.SearchQuery, 0, panelPerSecond*seconds)
	for i := 0; i < cap(panel); i++ {
		req, ok := walk.at(i)
		if !ok {
			break
		}
		panel = append(panel, req.query())
	}
	return panel
}

// hotOrder is the seeded replay order of the seven-query mix: a
// permutation, so every pass still sends each query exactly once.
func hotOrder(seed int64) []request {
	mix := hotMix()
	out := make([]request, len(mix))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(mix)) {
		out[i] = mix[j]
	}
	return out
}

// growthHubs is how many existing hub DNAs the update stream reaches.
// Refresh cost depends on the hub (its frontier is 170 ms on some,
// 400-800 ms on others at scale 4), so the stream cycles through a
// fixed set in a seeded order: every run of growthHubs batches does the
// same work whatever the seed, and a median over them is comparable.
const growthHubs = 5

// growthBatch is batch i of the seeded update stream, in the
// cacheGrowthBatch shape: a fresh protein/DNA/unigene triangle (3
// entities, 3 relationships) plus one encodes edge into an existing
// hub DNA.
type growthBatch struct {
	updates []toposearch.Update
	jsonl   []byte
}

func newGrowthBatch(seed int64, i int) growthBatch {
	p := int64(baseProtein + 810000 + i)
	d := int64(baseDNA + 810000 + i)
	u := int64(baseUnigene + 810000 + i)
	order := rand.New(rand.NewSource(seed)).Perm(growthHubs)
	hub := int64(baseDNA + order[i%growthHubs])
	type ent struct {
		set   string
		id    int64
		attrs map[string]string
	}
	ents := []ent{
		{toposearch.Protein, p, map[string]string{"desc": fmt.Sprintf("bench protein %d %s", i, tokMedium)}},
		{toposearch.DNA, d, map[string]string{"type": "mRNA", "desc": fmt.Sprintf("bench dna %d %s", i, tokUnselective)}},
		{toposearch.Unigene, u, map[string]string{"desc": fmt.Sprintf("bench cluster %d", i)}},
	}
	rels := []struct {
		rel  string
		a, b int64
	}{{"encodes", p, d}, {"uni_encodes", u, p}, {"uni_contains", u, d}, {"encodes", p, hub}}
	var gb growthBatch
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, e := range ents {
		gb.updates = append(gb.updates, toposearch.InsertEntity(e.set, e.id, e.attrs))
		_ = enc.Encode(map[string]any{"entity": e.set, "id": e.id, "attrs": e.attrs}) // strings.Builder cannot fail
	}
	for _, r := range rels {
		gb.updates = append(gb.updates, toposearch.InsertRelationship(r.rel, r.a, r.b))
		_ = enc.Encode(map[string]any{"rel": r.rel, "a": r.a, "b": r.b})
	}
	gb.jsonl = []byte(sb.String())
	return gb
}
