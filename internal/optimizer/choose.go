package optimizer

import "math"

// Cost-unit calibration. The unit is one in-memory hash probe (the
// regular plan's join probe). Random index lookups — the access path of
// the IDGJ operator — are substantially more expensive on the paper's
// hardware ("the IDGJ operator requires (random) index lookups ...
// while a regular hash-join does not have any of this overhead",
// Section 5.4); DefaultProbeCostET captures that penalty and should be
// used as JoinStats.I when costing DGJ stacks.
const (
	cScan  = 0.02 // sequential access, per row
	cProbe = 1.0  // in-memory hash probe
	cSort  = 0.1  // per comparison in the final sort

	// DefaultProbeCostET is the random index lookup cost of a DGJ
	// operator, in cProbe units.
	DefaultProbeCostET = 8.0
)

// PlanKind identifies the strategy the optimizer picked.
type PlanKind int

// The three physical strategies for the top-k topology query.
const (
	// PlanRegular is the conventional hash-join plan of Figure 14:
	// join everything, distinct, sort by score, fetch k.
	PlanRegular PlanKind = iota
	// PlanETIndex is the Figure 15(a) plan: a stack of IDGJ operators
	// over a score-ordered group source with early termination.
	PlanETIndex
	// PlanETHash is the Figure 15(b) variant using an HDGJ operator,
	// which rescans its inner relation once per group. Choose costs it
	// but never picks it: it is Table 2's worst plan.
	PlanETHash
)

// String names the plan kind.
func (k PlanKind) String() string {
	switch k {
	case PlanRegular:
		return "regular"
	case PlanETIndex:
		return "et-idgj"
	case PlanETHash:
		return "et-hdgj"
	default:
		return "unknown"
	}
}

// RegularStats describes the conventional plan of Figure 14, which
// drives the join from the selected entity rows (DB2 and SQL Server
// both join LeftTops with the selected Protein tuples first): retrieve
// the rows of entity-set 1 that pass the local predicate, probe the
// Tops table by E1, probe entity-set 2 for each match, join TopInfo,
// then distinct + sort + fetch k.
type RegularStats struct {
	// Entity1Rows is the number of entity-1 rows retrieved by the
	// predicate index (N1 * rho1).
	Entity1Rows float64
	// TopsMatches is the expected number of Tops rows whose E1 joins a
	// selected entity-1 row (|Tops| * rho1).
	TopsMatches float64
	// Rho2 is the entity-2 predicate selectivity applied to each match.
	Rho2 float64
	// Groups is the number of distinct topologies reaching the sort.
	Groups float64
}

// RegularCost estimates the Figure 14 plan in probe units. All
// topologies are processed; there is no early termination — the
// inefficiency the paper identifies in Section 5.2 — but every probe is
// a cheap in-memory hash probe and the input shrinks with the entity
// predicates' selectivity, which is why this plan wins for selective
// queries (Table 2).
func RegularCost(rs RegularStats) float64 {
	cost := rs.Entity1Rows * (cScan + cProbe) // retrieve + probe Tops by E1
	cost += rs.TopsMatches * cProbe           // probe entity-2 hash per match
	cost += rs.TopsMatches * rs.Rho2 * cProbe // probe TopInfo for survivors
	if g := rs.Groups; g > 1 {
		cost += g * math.Log2(g+1) * cSort // final distinct+sort
	}
	return cost
}

// HDGJCost estimates the Figure 15(b) variant through the same
// Theorem 1 recurrence but with group costs dominated by the per-group
// rescan of the inner relations: a missed group pays the full scans, a
// hit group pays half in expectation (the match interrupts the scan).
func HDGJCost(s StackStats, k int) float64 {
	if k <= 0 || len(s.Cards) == 0 {
		return 0
	}
	c := computeChains(s.Joins)
	var scanAll float64
	for _, j := range s.Joins {
		scanAll += j.N * cScan
	}
	z := make([]float64, k+1)
	next := make([]float64, k+1)
	for l := len(s.Cards) - 1; l >= 0; l-- {
		np := math.Pow(1-c.x[0], s.Cards[l])
		missCost := s.Cards[l]*cScan + scanAll
		hitCost := s.Cards[l]*cScan + scanAll/2
		for kk := 1; kk <= k; kk++ {
			next[kk] = (1-np)*(hitCost+z[kk-1]) + np*(missCost+z[kk])
		}
		z, next = next, z
	}
	return z[k]
}

// Choice reports the optimizer's decision and the estimated costs of
// all candidate plans.
type Choice struct {
	Kind       PlanKind
	CostByPlan map[PlanKind]float64
}

// Choose compares the regular plan against the IDGJ early-termination
// plan for a top-k query and returns the cheaper — the decision the
// Fast-Top-k-Opt and Full-Top-k-Opt methods make between their two
// named plans (X-k and X-k-ET). The HDGJ plan is costed too, so
// CostByPlan and Explain still rank it, but it is never chosen: it is
// Table 2's worst plan, kept for the ablation runs only. The stack's
// JoinStats.I should carry the random-lookup penalty
// (DefaultProbeCostET).
func Choose(reg RegularStats, stack StackStats, k int) Choice {
	costs := map[PlanKind]float64{
		PlanRegular: RegularCost(reg),
		PlanETIndex: stack.ETCost(k),
		PlanETHash:  HDGJCost(stack, k),
	}
	best := PlanRegular
	if costs[PlanETIndex] < costs[PlanRegular] {
		best = PlanETIndex
	}
	return Choice{Kind: best, CostByPlan: costs}
}
