package methods_test

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"toposearch/internal/biozon"
	"toposearch/internal/core"
	"toposearch/internal/methods"
	"toposearch/internal/ranking"
	"toposearch/internal/relstore"
)

// countdownCtx is a context whose deadline expires on its own schedule:
// Err reports DeadlineExceeded once it has been called more than n
// times. Every cancellation check a plan makes consumes one call, so
// sweeping n cuts a drain at each of its checkpoints in turn, without
// depending on wall-clock timing.
type countdownCtx struct {
	context.Context
	left  atomic.Int64
	calls atomic.Int64
}

func newCountdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	c.calls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestPartialETPrefixAtEveryCut is the deterministic half of the
// partial-ET contract: for both ET methods, cut at evenly spaced
// cancellation checkpoints across the whole run, every partial answer
// is a prefix of the complete one. The store is built so that pruned
// topologies interleave with Fast-Top-k-ET's witnesses: a cut must not
// ship a witness some unchecked pruned topology would have outranked.
func TestPartialETPrefixAtEveryCut(t *testing.T) {
	db := biozon.Generate(biozon.DefaultConfig(3))
	s, err := methods.BuildStore(context.Background(), db, biozon.SchemaGraph(), biozon.Protein, biozon.DNA,
		methods.StoreConfig{Opts: core.DefaultOptions(), PruneThreshold: 8, Scores: ranking.Schemes()})
	if err != nil {
		t.Fatal(err)
	}
	// One protein: sparse witnesses, so the drain crosses many
	// checkpoints between them.
	pred := relstore.MustContains(s.T1.Schema, "desc", "6")
	const cuts = 60
	for _, method := range []string{methods.MethodFastTopKET, methods.MethodFullTopKET} {
		for _, k := range []int{3, 10} {
			q := methods.Query{Pred1: pred, K: k, Ranking: ranking.Rare, Parallelism: 1, PartialOK: true}
			probe := newCountdown(1 << 40)
			q.Ctx = probe
			full, err := s.Run(method, q)
			if err != nil {
				t.Fatal(err)
			}
			if full.Partial || len(full.Items) == 0 {
				t.Fatalf("%s k=%d: unbounded run partial=%v with %d items", method, k, full.Partial, len(full.Items))
			}
			checks := probe.calls.Load()
			for i := int64(0); i < cuts; i++ {
				n := i * checks / cuts
				q.Ctx = newCountdown(n)
				res, err := s.Run(method, q)
				if err != nil {
					t.Fatalf("%s k=%d cut at check %d of %d: %v", method, k, n, checks, err)
				}
				tag := fmt.Sprintf("%s k=%d cut at check %d of %d", method, k, n, checks)
				if !res.Partial {
					t.Fatalf("%s: not reported partial", tag)
				}
				if len(res.Items) > len(full.Items) ||
					(len(res.Items) > 0 && !reflect.DeepEqual(res.Items, full.Items[:len(res.Items)])) {
					t.Fatalf("%s: %v is not a prefix of %v", tag, res.Items, full.Items)
				}
			}
		}
	}
}

// TestPartialOKETWithoutDeadlineMatchesPlain pins that a PartialOK
// query whose deadline never fires is the plain sequential run: the
// stack built with per-group guards watching the query context returns
// items AND useful-work counters byte-identical to the default stack,
// for every ET method, both DGJ variants, several k values and
// predicate mixes.
func TestPartialOKETWithoutDeadlineMatchesPlain(t *testing.T) {
	s := generatedStore(t, 2)
	sel, err := biozon.SelectivityPred(s.T1.Schema, "selective")
	if err != nil {
		t.Fatal(err)
	}
	med, err := biozon.SelectivityPred(s.T2.Schema, "medium")
	if err != nil {
		t.Fatal(err)
	}
	mrna, err := relstore.Eq(s.T2.Schema, "type", relstore.StrVal("mRNA"))
	if err != nil {
		t.Fatal(err)
	}
	preds := []struct {
		name     string
		pr1, pr2 relstore.Pred
	}{
		{"none", nil, nil},
		{"sel-med", sel, med},
		{"sel-mrna", sel, mrna},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, method := range []string{methods.MethodFullTopKET, methods.MethodFastTopKET} {
		for _, pp := range preds {
			for _, hdgj := range []bool{false, true} {
				for _, k := range []int{1, 3, 10, 1000, 0} {
					q := methods.Query{Pred1: pp.pr1, Pred2: pp.pr2, K: k,
						Ranking: ranking.Domain, UseHDGJ: hdgj, Parallelism: 1}
					want, err := s.Run(method, q)
					if err != nil {
						t.Fatalf("%s seq: %v", method, err)
					}
					qq := q
					qq.Ctx = ctx
					qq.PartialOK = true
					got, err := s.Run(method, qq)
					if err != nil {
						t.Fatalf("%s partialOK: %v", method, err)
					}
					tag := fmt.Sprintf("%s/%s/hdgj=%v/k=%d", method, pp.name, hdgj, k)
					if !reflect.DeepEqual(got.Items, want.Items) {
						t.Errorf("%s: items %v, want %v", tag, got.Items, want.Items)
					}
					if got.Counters != want.Counters {
						t.Errorf("%s: counters %+v, want %+v", tag, got.Counters, want.Counters)
					}
					if got.Partial {
						t.Errorf("%s: reported partial before its deadline", tag)
					}
				}
			}
		}
	}
}

// TestCancelledETFails pins that an already-cancelled context
// aborts an ET plan with the context's error. PartialOK only turns a
// deadline into a partial answer; cancellation still fails the query.
func TestCancelledETFails(t *testing.T) {
	s := generatedStore(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, method := range []string{methods.MethodFullTopKET, methods.MethodFastTopKET} {
		for _, partialOK := range []bool{false, true} {
			q := methods.Query{K: 5, Ranking: ranking.Domain, PartialOK: partialOK}
			if _, err := s.RunContext(ctx, method, q); err != context.Canceled {
				t.Errorf("%s partialOK=%v: cancelled ET returned %v, want context.Canceled", method, partialOK, err)
			}
		}
	}
}
