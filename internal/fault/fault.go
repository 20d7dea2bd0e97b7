// Package fault is the failure-containment substrate of the engine: a
// deterministic, seedable fault-injection registry plus the typed panic
// error every worker goroutine recovers into.
//
// Packages declare named injection points as package-level variables
// (fault.Register at init time) and call Point.Hit() at their hot
// seams. While the registry is disabled — the shipped default — a hit
// is one atomic load and nothing else: no allocation, no lock, no
// branch beyond the load, so production paths pay effectively nothing
// for being injectable. Tests and chaos harnesses arm points with
// Enable(seed, rules...): a rule fires with a given probability, after
// a warm-up count, at most a bounded number of times, and its action is
// returning an error, panicking with an *Injected value, and/or
// sleeping — the vocabulary needed to simulate worker crashes, slow
// workers and transient storage failures deterministically.
//
// Determinism: each armed point draws from its own rand source seeded
// from the global seed and the point's name, so whether a given hit
// fires depends only on (seed, point, hit ordinal) — never on the
// interleaving of other points. Under concurrency the assignment of
// hit ordinals to goroutines is scheduling-dependent, but the fired
// subsequence for a fixed ordinal sequence is reproducible.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel every injected error (and every injected
// panic value) wraps; errors.Is(err, fault.ErrInjected) identifies a
// failure as synthetic through any number of wrapping layers,
// including containment in a *PanicError.
var ErrInjected = errors.New("injected fault")

// Injected is the concrete injected failure: returned as the error of
// a firing point, and used as the panic value of a panic-action rule
// (so a recovered chaos panic still identifies itself via errors.Is).
type Injected struct {
	// Point is the name of the injection point that fired.
	Point string
}

func (e *Injected) Error() string { return "fault: injected at " + e.Point }

// Unwrap ties every injected failure to the ErrInjected sentinel.
func (e *Injected) Unwrap() error { return ErrInjected }

// Rule describes one armed behavior for injection points.
type Rule struct {
	// Point selects the injection point by exact name; "*" arms every
	// registered point with this rule.
	Point string
	// Prob is the chance a hit fires once eligible (0 means 1.0, i.e.
	// every eligible hit fires).
	Prob float64
	// After skips the first After hits of the point before any can fire
	// (lets a batch make progress before the fault lands mid-way).
	After int
	// Count bounds how many times the rule fires (0 = unlimited).
	Count int
	// Err, when set, replaces the default *Injected error returned by a
	// firing hit. Ignored by panic-action rules.
	Err error
	// Panic makes a firing hit panic with an *Injected value instead of
	// returning an error — the worker-crash simulation.
	Panic bool
	// Delay makes a firing hit sleep before acting (slow-worker /
	// slow-storage simulation). A delay-only rule (no Err, no Panic,
	// Delay > 0) sleeps and returns nil.
	Delay time.Duration
	// DelayOnly marks the rule as pure latency: sleep, then return nil
	// instead of an error.
	DelayOnly bool
}

// armed is the live state of one rule bound to one point.
type armed struct {
	mu    sync.Mutex
	r     Rule
	prob  float64
	rng   *rand.Rand
	seen  int64
	fired int64
}

// Point is one named injection site. Points are registered once at
// package init and live forever; arming and disarming swaps the rule
// pointer atomically.
type Point struct {
	name string
	rule atomic.Pointer[armed]
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

var (
	regMu   sync.Mutex
	points  = map[string]*Point{}
	enabled atomic.Bool
)

// Register declares (or returns the existing) injection point with the
// given name. Call it from package-level variable initializers so the
// chaos harness can enumerate every seam via Names().
func Register(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	if p := points[name]; p != nil {
		return p
	}
	p := &Point{name: name}
	points[name] = p
	return p
}

// Names lists every registered injection point, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(points))
	for name := range points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Enabled reports whether the registry is armed.
func Enabled() bool { return enabled.Load() }

// Enable arms the registry: every rule is bound to its matching
// point(s) — later rules override earlier ones on the same point — and
// hits start being evaluated. Each (point, rule) binding gets an
// independent deterministic rand source derived from seed and the
// point's name. Enabling with a rule naming an unregistered point is an
// error (catches typos in chaos configs); "*" matches all points.
func Enable(seed int64, rules ...Rule) error {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range points {
		p.rule.Store(nil)
	}
	for _, r := range rules {
		var targets []*Point
		if r.Point == "*" {
			for _, p := range points {
				targets = append(targets, p)
			}
		} else if p := points[r.Point]; p != nil {
			targets = []*Point{p}
		} else {
			for _, p := range points {
				p.rule.Store(nil)
			}
			return fmt.Errorf("fault: unknown injection point %q", r.Point)
		}
		for _, p := range targets {
			prob := r.Prob
			if prob == 0 {
				prob = 1
			}
			h := fnv.New64a()
			h.Write([]byte(p.name))
			p.rule.Store(&armed{r: r, prob: prob,
				rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64())))})
		}
	}
	enabled.Store(true)
	return nil
}

// Disable disarms the registry. Rule state (hit/fire counters) stays
// readable via Stats until the next Enable.
func Disable() {
	enabled.Store(false)
}

// PointStats reports one point's activity since it was last armed.
type PointStats struct {
	Name  string
	Seen  int64 // hits evaluated while armed
	Fired int64 // hits that fired an action
}

// Stats snapshots every currently-armed point's counters, sorted by
// name.
func Stats() []PointStats {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]PointStats, 0, len(points))
	for name, p := range points {
		a := p.rule.Load()
		if a == nil {
			continue
		}
		a.mu.Lock()
		out = append(out, PointStats{Name: name, Seen: a.seen, Fired: a.fired})
		a.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TotalFired sums the fire counts across all armed points.
func TotalFired() int64 {
	var n int64
	for _, st := range Stats() {
		n += st.Fired
	}
	return n
}

// Hit evaluates the point: nil while the registry is disabled or the
// point unarmed; otherwise the armed rule decides whether this hit
// fires, and with which action. The disabled fast path is a single
// atomic load.
func (p *Point) Hit() error {
	if !enabled.Load() {
		return nil
	}
	return p.hit()
}

func (p *Point) hit() error {
	a := p.rule.Load()
	if a == nil {
		return nil
	}
	a.mu.Lock()
	a.seen++
	if a.seen <= int64(a.r.After) {
		a.mu.Unlock()
		return nil
	}
	if a.r.Count > 0 && a.fired >= int64(a.r.Count) {
		a.mu.Unlock()
		return nil
	}
	if a.prob < 1 && a.rng.Float64() >= a.prob {
		a.mu.Unlock()
		return nil
	}
	a.fired++
	r := a.r
	a.mu.Unlock()
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r.Panic {
		panic(&Injected{Point: p.name})
	}
	if r.DelayOnly {
		return nil
	}
	if r.Err != nil {
		return fmt.Errorf("fault at %s: %w", p.name, r.Err)
	}
	return &Injected{Point: p.name}
}

// PanicError is a panic recovered inside a worker goroutine (or a
// public entry point) and converted into a typed error: the containment
// boundary's receipt. It records where the panic was caught, the
// recovered value, and the goroutine stack at recovery time.
type PanicError struct {
	// Site names the containment boundary that caught the panic (e.g.
	// "engine.segment", "core.start", "toposearch.ApplyBatch").
	Site string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic contained in %s: %v", e.Site, e.Value)
}

// Unwrap exposes the panic value when it is itself an error (an
// *Injected chaos panic, a wrapped storage error), so errors.Is and
// errors.As see through the containment layer.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// NewPanicError wraps a recovered panic value. A value that is already
// a *PanicError passes through unchanged, so re-containment at an outer
// boundary keeps the innermost site and stack.
func NewPanicError(site string, v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Site: site, Value: v, Stack: debug.Stack()}
}

// RecoverTo is the deferred containment idiom:
//
//	defer fault.RecoverTo(&err, "core.start")
//
// If the surrounded code panics, the panic is converted into a
// *PanicError stored in *errp (overwriting any error already there —
// the panic is strictly more information). Without a panic in flight it
// does nothing.
func RecoverTo(errp *error, site string) {
	if v := recover(); v != nil {
		*errp = NewPanicError(site, v)
	}
}
