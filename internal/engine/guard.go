package engine

import (
	"context"

	"toposearch/internal/relstore"
)

// guardStride is how many tuples a Guard lets through between context
// checks: frequent enough to abort within microseconds of a cancel,
// rare enough that the atomic load in ctx.Err() stays off the profile.
const guardStride = 256

// Guard wraps an operator and aborts iteration with the context's error
// once it is cancelled, checking on Open and every guardStride tuples.
// It is how cancellation threads through the Volcano iterator stack:
// method drivers wrap their plan roots, so every scan, join and DGJ
// stack below becomes abortable without each operator knowing about
// contexts.
type Guard struct {
	inner Op
	ctx   context.Context
	n     int
}

// NewGuard wraps op with a cancellation guard. A nil context returns op
// unchanged.
func NewGuard(op Op, ctx context.Context) Op {
	if ctx == nil {
		return op
	}
	return &Guard{inner: op, ctx: ctx}
}

// Columns returns the inner operator's columns.
func (g *Guard) Columns() []string { return g.inner.Columns() }

// Open checks the context and opens the inner operator.
func (g *Guard) Open() error {
	if err := g.ctx.Err(); err != nil {
		return err
	}
	g.n = 0
	return g.inner.Open()
}

// Next forwards to the inner operator, checking the context every
// guardStride tuples.
func (g *Guard) Next() (relstore.Row, bool, error) {
	g.n++
	if g.n%guardStride == 0 {
		if err := g.ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	return g.inner.Next()
}

// Close closes the inner operator.
func (g *Guard) Close() error { return g.inner.Close() }

// GroupGuard is Guard for group operators: it keeps the group
// interface, so a deadline-bounded ET stack aborts even mid-group. It
// charges no counters, so guarded and unguarded stacks do identical
// accounted work.
type GroupGuard struct {
	inner GroupOp
	ctx   context.Context
	n     int
}

// NewGroupGuard wraps op with a cancellation guard. A nil context
// returns op unchanged.
func NewGroupGuard(op GroupOp, ctx context.Context) GroupOp {
	if ctx == nil {
		return op
	}
	return &GroupGuard{inner: op, ctx: ctx}
}

// Columns implements Op.
func (g *GroupGuard) Columns() []string { return g.inner.Columns() }

// Open implements Op.
func (g *GroupGuard) Open() error {
	if err := g.ctx.Err(); err != nil {
		return err
	}
	g.n = 0
	return g.inner.Open()
}

// Next implements Op, checking the context every guardStride tuples.
func (g *GroupGuard) Next() (relstore.Row, bool, error) {
	g.n++
	if g.n%guardStride == 0 {
		if err := g.ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	return g.inner.Next()
}

// Close implements Op.
func (g *GroupGuard) Close() error { return g.inner.Close() }

// AdvanceToNextGroup implements GroupOp, checking the context at every
// group skip.
func (g *GroupGuard) AdvanceToNextGroup() error {
	if err := g.ctx.Err(); err != nil {
		return err
	}
	return g.inner.AdvanceToNextGroup()
}

// GroupOrdinal implements GroupOp.
func (g *GroupGuard) GroupOrdinal() int { return g.inner.GroupOrdinal() }
