// Package optimizer implements the cost-based query optimization of
// Section 5.4: a cost model for stacks of Distinct Group Join operators
// (the early-termination plans of Figure 15), a conventional cost model
// for the regular hash-join plans (Figure 14), a plan chooser that picks
// the cheaper strategy (the Opt methods of the evaluation), and a
// System-R style dynamic-programming join enumerator extended with the
// early-termination interesting property (Section 5.4.1).
//
// The DGJ cost model follows the paper's Appendix A: per-operator
// result probabilities x_i (Lemma 1), miss costs delta_i (Lemma 2),
// per-group parameters np_i / nc_i / ec_i (Theorems 2-4), and the
// E[Z^k] recurrence over groups (Theorem 1) evaluated by dynamic
// programming. Two typos in the appendix are corrected here: the base
// case of Lemma 1 must be x_{n+1} = 1 (a tuple that survives every
// operator IS a result; with the printed x_{n+1} = 0 every x_i
// collapses to zero), and the first-success probability in Theorem 4
// uses x_l, not rho_l. The binomial sums of the appendix are evaluated
// in closed form: sum_j C(J,j) rho^j (1-rho)^(J-j) (1-(1-x)^j) =
// 1-(1-rho*x)^J.
package optimizer

import (
	"fmt"
	"math"
)

// JoinStats describes one operator of a DGJ stack (Section 5.4.3).
type JoinStats struct {
	// N is the cardinality of the inner relation being joined.
	N float64
	// I is the cost of one index probe on the inner relation's join
	// attribute (the unit of the whole model).
	I float64
	// Rho is the selectivity of the inner relation's local predicate.
	Rho float64
	// S is the join selectivity: an outer tuple matches S*N inner
	// tuples in expectation (for key joins S*N = 1).
	S float64
}

// Matches returns the expected number of inner matches per outer tuple.
func (j JoinStats) Matches() float64 { return j.S * j.N }

// StackStats describes a whole DGJ plan: the group cardinalities in
// processing (score) order and the join operators bottom-up.
type StackStats struct {
	// Cards[i] is Card_i: the number of input tuples in group g_i.
	Cards []float64
	// Joins are the stacked DGJ operators, outermost input first.
	Joins []JoinStats
}

// chains holds the per-operator x, delta, and success-cost chains.
type chains struct {
	x     []float64 // x[i]: P(input tuple of opr_i produces a result); x[n] = 1 sentinel
	delta []float64 // delta[i]: expected probe cost of one opr_i input tuple
}

// computeChains evaluates Lemmas 1 and 2 bottom-up.
func computeChains(joins []JoinStats) chains {
	n := len(joins)
	c := chains{x: make([]float64, n+1), delta: make([]float64, n+1)}
	c.x[n] = 1
	c.delta[n] = 0
	for i := n - 1; i >= 0; i-- {
		J := joins[i].Matches()
		// Lemma 1 (closed form): each of the J expected matches
		// independently passes the local predicate and produces a
		// downstream result with probability rho*x_{i+1}.
		p := clamp01(joins[i].Rho * c.x[i+1])
		c.x[i] = 1 - math.Pow(1-p, J)
		// Lemma 2 (closed form): one probe at this level plus, for each
		// of the rho*J matches that survive the local predicate, the
		// downstream cost.
		c.delta[i] = joins[i].I + joins[i].Rho*J*c.delta[i+1]
	}
	return c
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// geomSums returns S0 = sum_{j=1..h} q^(j-1) and
// S1 = sum_{j=1..h} (j-1) q^(j-1) in closed form.
func geomSums(q float64, h float64) (s0, s1 float64) {
	if h <= 0 {
		return 0, 0
	}
	if q >= 1 {
		return h, h * (h - 1) / 2
	}
	if q <= 0 {
		return 1, 0
	}
	qh := math.Pow(q, h)
	s0 = (1 - qh) / (1 - q)
	// sum_{j=0}^{h-1} j q^j
	s1 = q * (1 - h*math.Pow(q, h-1) + (h-1)*qh) / ((1 - q) * (1 - q))
	return s0, s1
}

// successCost returns the expected probe cost of one input tuple of
// operator l conditioned on that tuple producing a result: the probe at
// this level, the successful descent, plus the expected exploration of
// sibling matches tried before the successful one (early termination
// stops at the first success, so on average half the surviving matches
// beyond the first are explored).
func (c chains) successCost(joins []JoinStats, l int) float64 {
	if l >= len(joins) {
		return 0
	}
	sc := joins[l].I + c.successCost(joins, l+1)
	if extra := joins[l].Rho*joins[l].Matches() - 1; extra > 0 {
		sc += extra / 2 * c.delta[l+1]
	}
	return sc
}

// ec evaluates Theorem 4: the expected cost of finding the first result
// from h input tuples of operator l (0-based), probability-weighted so
// that the no-result case contributes zero here (it is carried by nc).
// The first success arrives at tuple j with probability
// x_l (1-x_l)^(j-1); the j-1 misses each cost delta_l and the hit costs
// the conditional success cost.
func (c chains) ec(joins []JoinStats, l int, h float64) float64 {
	if l >= len(joins) || h <= 0 {
		return 0
	}
	xl := c.x[l]
	if xl <= 0 {
		return 0
	}
	s0, s1 := geomSums(1-xl, h)
	return xl * (c.delta[l]*s1 + c.successCost(joins, l)*s0)
}

// GroupParams are the Theorem 2-4 parameters for one group.
type GroupParams struct {
	NP float64 // probability of finding no result in the group
	NC float64 // probability-weighted cost of exhausting the group
	EC float64 // probability-weighted cost of finding the first result
}

// Params computes np_i, nc_i and ec_i for every group.
func (s StackStats) Params() []GroupParams {
	c := computeChains(s.Joins)
	out := make([]GroupParams, len(s.Cards))
	for i, card := range s.Cards {
		np := math.Pow(1-c.x[0], card)
		out[i] = GroupParams{
			NP: np,
			NC: np * card * c.delta[0], // Theorem 3
			EC: c.ec(s.Joins, 0, card), // Theorem 4
		}
	}
	return out
}

// ETCost evaluates Theorem 1 by dynamic programming: the expected cost
// of producing the top k groups with results when groups are processed
// in the given order. It returns the expected cost in index-probe
// units.
func (s StackStats) ETCost(k int) float64 {
	if k <= 0 || len(s.Cards) == 0 {
		return 0
	}
	params := s.Params()
	m := len(params)
	// z[kk] = E[Z^kk_{l:m}] for the current l; iterate l = m..1.
	z := make([]float64, k+1)
	next := make([]float64, k+1)
	for l := m - 1; l >= 0; l-- {
		p := params[l]
		for kk := 1; kk <= k; kk++ {
			next[kk] = p.EC + (1-p.NP)*z[kk-1] + p.NC + p.NP*z[kk]
		}
		z, next = next, z
	}
	return z[k]
}

// String renders the stack for diagnostics.
func (s StackStats) String() string {
	return fmt.Sprintf("StackStats(groups=%d, joins=%d)", len(s.Cards), len(s.Joins))
}
