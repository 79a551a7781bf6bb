package systemr

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/logical"
	"repro/internal/physical"
)

// block holds the working state of one join-block optimization.
type block struct {
	opt    *Optimizer
	leaves []logical.RelExpr
	graph  *logical.QueryGraph
	// interesting is the set of columns whose orderings are worth keeping.
	interesting logical.ColSet
	// cardMemo caches subset cardinalities (a logical property shared by
	// every plan for the subset).
	cardMemo map[uint64]float64
	// relMemo caches the canonical logical expression per subset.
	relMemo map[uint64]logical.RelExpr
}

// optimizeBlock runs DP join enumeration over an inner-join block.
func (o *Optimizer) optimizeBlock(root logical.RelExpr, interesting logical.ColSet) (physical.Plan, error) {
	leaves, preds, ok := logical.ExtractJoinBlock(root)
	if !ok {
		return nil, fmt.Errorf("systemr: not a join block")
	}
	g := logical.BuildQueryGraph(leaves, preds)
	b := &block{
		opt:         o,
		leaves:      leaves,
		graph:       g,
		interesting: interesting.Copy(),
		cardMemo:    map[uint64]float64{},
		relMemo:     map[uint64]logical.RelExpr{},
	}
	// Join columns are interesting orders (§3).
	for _, e := range g.Edges {
		for _, p := range e.Preds {
			if l, r, ok := equiCols(p); ok {
				b.interesting.Add(l)
				b.interesting.Add(r)
			}
		}
	}
	n := len(leaves)
	// Predicates with no column footprint inside the block (constants,
	// uncorrelated subqueries) apply once, above the join.
	var floating []logical.Scalar
	var anchored []logical.Scalar
	blockCols := b.subsetCols(uint64(1)<<uint(n) - 1)
	for _, p := range g.Complex {
		if logical.ScalarCols(p).Intersect(blockCols).Empty() {
			floating = append(floating, p)
		} else {
			anchored = append(anchored, p)
		}
	}
	g.Complex = anchored

	var plan physical.Plan
	var err error
	switch {
	case n == 1:
		var plans []physical.Plan
		plans, err = b.leafCandidates(0)
		if err == nil {
			plan = cheapest(plans)
		}
	case n > 63:
		return nil, fmt.Errorf("systemr: %d relations exceed the enumerable maximum", n)
	default:
		plan, err = b.orderJoins(n)
	}
	if err != nil {
		return nil, err
	}
	if len(floating) > 0 {
		plan = o.addFilter(plan, floating)
	}
	return plan, nil
}

// orderJoins picks the enumeration tier for an n-relation block (n >= 2):
// greedy beyond MaxRelations (the classical overflow fallback), greedy for
// blocks at or below GreedyThreshold or whose greedy-ordered plan already
// costs no more than GreedyCostThreshold (the adaptive fast-path — planning
// time traded against join-order quality on statements too cheap to deserve
// DP), and full DP enumeration otherwise.
func (b *block) orderJoins(n int) (physical.Plan, error) {
	o := b.opt
	switch {
	case n > o.Opts.MaxRelations:
		o.noteTier(TierGreedyFallback)
		return b.greedy()
	case o.Opts.GreedyThreshold > 0 && n <= o.Opts.GreedyThreshold:
		o.noteTier(TierGreedy)
		return b.greedy()
	case o.Opts.GreedyCostThreshold > 0:
		if gp, err := b.greedy(); err == nil {
			if _, c := gp.Estimate(); c <= o.Opts.GreedyCostThreshold {
				o.noteTier(TierGreedy)
				return gp, nil
			}
		}
		// The greedy plan was too costly (or greedy failed): this block is
		// expensive enough that DP's better join order pays for itself.
		o.noteTier(TierDP)
		return b.dp()
	}
	o.noteTier(TierDP)
	return b.dp()
}

// equiCols extracts (leftCol, rightCol) from an equality between two columns.
func equiCols(p logical.Scalar) (logical.ColumnID, logical.ColumnID, bool) {
	cmp, ok := p.(*logical.Cmp)
	if !ok || cmp.Op != logical.CmpEq {
		return 0, 0, false
	}
	l, lok := cmp.L.(*logical.Col)
	r, rok := cmp.R.(*logical.Col)
	if !lok || !rok {
		return 0, 0, false
	}
	return l.ID, r.ID, true
}

// leafCandidates generates access paths for leaf i with its local predicates.
func (b *block) leafCandidates(i int) ([]physical.Plan, error) {
	leaf := b.leaves[i]
	local := b.graph.Local[i]
	if scan, ok := leaf.(*logical.Scan); ok {
		return b.opt.accessPaths(scan, local), nil
	}
	plans, err := b.opt.leafPlans(leaf, b.interesting)
	if err != nil {
		return nil, err
	}
	if len(local) > 0 {
		for j, p := range plans {
			plans[j] = b.opt.addFilter(p, local)
		}
	}
	return plans, nil
}

// subsetRel returns the canonical logical expression for a subset: leaves
// joined in index order with every applicable predicate.
func (b *block) subsetRel(mask uint64) logical.RelExpr {
	if e, ok := b.relMemo[mask]; ok {
		return e
	}
	// Build a left-deep join in index order, attaching each predicate at the
	// first join where both of its sides are available — the estimator then
	// sees accurate per-step selectivities instead of a cross product with
	// a top filter.
	var rel logical.RelExpr
	var acc uint64
	for i := 0; i < len(b.leaves); i++ {
		bit := uint64(1) << uint(i)
		if mask&bit == 0 {
			continue
		}
		leaf := b.leaves[i]
		if len(b.graph.Local[i]) > 0 {
			leaf = &logical.Select{Input: leaf, Filters: b.graph.Local[i]}
		}
		if rel == nil {
			rel = leaf
		} else {
			rel = &logical.Join{Kind: logical.InnerJoin, Left: rel, Right: leaf, On: b.joinPreds(acc, bit)}
		}
		acc |= bit
	}
	b.relMemo[mask] = rel
	return rel
}

func (b *block) subsetCols(mask uint64) logical.ColSet {
	var cols logical.ColSet
	for i := range b.leaves {
		if mask&(1<<uint(i)) != 0 {
			cols = cols.Union(b.graph.NodeCols[i])
		}
	}
	return cols
}

// card returns the estimated cardinality of a subset's join result.
func (b *block) card(mask uint64) float64 {
	if c, ok := b.cardMemo[mask]; ok {
		return c
	}
	c := b.opt.Est.Stats(b.subsetRel(mask)).Rows
	b.cardMemo[mask] = c
	return c
}

// members lists the leaf indexes in a mask.
func members(mask uint64) []int {
	var out []int
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		out = append(out, i)
		mask &^= 1 << uint(i)
	}
	return out
}

// entryKey derives the interesting-order key of a plan: the longest prefix
// of its output ordering consisting of interesting columns. Plans compare
// only within the same key (§3).
func (b *block) entryKey(p physical.Plan) string {
	if !b.opt.Opts.InterestingOrders {
		return ""
	}
	var kept logical.Ordering
	for _, s := range p.Ordering() {
		if !b.interesting.Contains(s.Col) {
			break
		}
		kept = append(kept, s)
	}
	return kept.Key()
}

// dpTable maps subset mask → interesting-order key → best plan.
type dpTable map[uint64]map[string]physical.Plan

func (b *block) insert(t dpTable, mask uint64, p physical.Plan) {
	key := b.entryKey(p)
	m, ok := t[mask]
	if !ok {
		m = map[string]physical.Plan{}
		t[mask] = m
	}
	_, newCost := p.Estimate()
	if cur, ok := m[key]; ok {
		if _, c := cur.Estimate(); c <= newCost {
			return
		}
	}
	m[key] = p
	// Drop entries dominated by a cheaper plan with a stronger-or-equal
	// key is unnecessary here: keys partition plans; the "" key holds the
	// global cheapest unordered plan.
}

// sortedEntries lists a subset's retained plans in interesting-order key
// order, so that ties between plans of equal cost break the same way on
// every run.
func sortedEntries(m map[string]physical.Plan) []physical.Plan {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]physical.Plan, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// dp runs the bottom-up enumeration.
func (b *block) dp() (physical.Plan, error) {
	n := len(b.leaves)
	table := dpTable{}
	for i := 0; i < n; i++ {
		cands, err := b.leafCandidates(i)
		if err != nil {
			return nil, err
		}
		for _, p := range cands {
			b.insert(table, 1<<uint(i), p)
		}
		b.opt.Metrics.SubsetsVisited++
	}

	full := uint64(1)<<uint(n) - 1
	// Enumerate subsets in increasing popcount order.
	masks := make([]uint64, 0, 1<<uint(n))
	for m := uint64(1); m <= full; m++ {
		if bits.OnesCount64(m) >= 2 {
			masks = append(masks, m)
		}
	}
	sort.Slice(masks, func(i, j int) bool {
		pi, pj := bits.OnesCount64(masks[i]), bits.OnesCount64(masks[j])
		if pi != pj {
			return pi < pj
		}
		return masks[i] < masks[j]
	})

	// System R defers Cartesian products: when the full query graph is
	// connected, no cross join is ever required, so pred-less splits are
	// skipped entirely unless the knob enables them.
	allMembers := members(full)
	fullConnected := b.graph.Connected(allMembers)
	for _, mask := range masks {
		b.opt.Metrics.SubsetsVisited++
		splits := b.splits(mask)
		for _, sp := range splits {
			left, right := sp[0], sp[1]
			lp, lok := table[left]
			rp, rok := table[right]
			if !lok || !rok {
				continue
			}
			preds := b.joinPreds(left, right)
			if len(preds) == 0 && !b.opt.Opts.CartesianProducts && fullConnected {
				continue
			}
			rows := b.card(mask)
			rightLeaf := b.rightLeafLogical(right)
			cands := b.opt.joinCandidates(logical.InnerJoin, sortedEntries(lp), sortedEntries(rp), rightLeaf, preds, rows)
			for _, p := range cands {
				b.insert(table, mask, p)
			}
		}
	}
	final, ok := table[full]
	if !ok || len(final) == 0 {
		return nil, fmt.Errorf("systemr: DP found no plan (disconnected graph without Cartesian products?)")
	}
	// Final selection: when the query requires an order the block can
	// provide, compare each retained plan's cost plus the sort it would
	// still need — the payoff for keeping interesting-order entries.
	blockCols := b.subsetCols(full)
	required := b.opt.requiredOrder
	for _, spec := range required {
		if !blockCols.Contains(spec.Col) {
			required = nil
			break
		}
	}
	var best physical.Plan
	bestCost := math.Inf(1)
	for _, p := range sortedEntries(final) {
		_, c := p.Estimate()
		if len(required) > 0 && !required.SatisfiedBy(p.Ordering()) {
			rows, _ := p.Estimate()
			c += b.opt.Model.Sort(rows)
		}
		if c < bestCost {
			best, bestCost = p, c
		}
	}
	for _, m := range table {
		b.opt.Metrics.EntriesKept += len(m)
	}
	return best, nil
}

// splits enumerates the (left, right) partitions of a mask: linear mode
// extends a (k-1)-subset by one relation; bushy mode tries every partition.
func (b *block) splits(mask uint64) [][2]uint64 {
	var out [][2]uint64
	if b.opt.Opts.Bushy {
		// Every proper sub-partition (left gets the lowest set bit to avoid
		// mirrored duplicates; both orders are generated for the asymmetric
		// join algorithms).
		for sub := (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask {
			other := mask &^ sub
			if other == 0 {
				continue
			}
			out = append(out, [2]uint64{sub, other})
		}
		return out
	}
	for _, i := range members(mask) {
		bit := uint64(1) << uint(i)
		rest := mask &^ bit
		if rest != 0 {
			out = append(out, [2]uint64{rest, bit})
		}
	}
	return out
}

// joinPreds returns the edge predicates connecting two disjoint masks plus
// complex predicates that first become applicable at their union.
func (b *block) joinPreds(left, right uint64) []logical.Scalar {
	lm, rm := members(left), members(right)
	preds := b.graph.EdgesBetween(lm, rm)
	union := b.subsetCols(left | right)
	lcols := b.subsetCols(left)
	rcols := b.subsetCols(right)
	for _, p := range b.graph.Complex {
		cols := logical.ScalarCols(p)
		if cols.SubsetOf(union) && !cols.SubsetOf(lcols) && !cols.SubsetOf(rcols) {
			preds = append(preds, p)
		}
	}
	return preds
}

// rightLeafLogical returns the logical leaf when the right side is a single
// relation (enabling index nested-loop joins), else nil.
func (b *block) rightLeafLogical(right uint64) logical.RelExpr {
	if bits.OnesCount64(right) != 1 {
		return nil
	}
	i := bits.TrailingZeros64(right)
	leaf := b.leaves[i]
	if len(b.graph.Local[i]) > 0 {
		return &logical.Select{Input: leaf, Filters: b.graph.Local[i]}
	}
	return leaf
}

// greedy joins the cheapest pair repeatedly — the fallback beyond
// MaxRelations.
func (b *block) greedy() (physical.Plan, error) {
	type part struct {
		mask uint64
		plan physical.Plan
	}
	var parts []part
	for i := range b.leaves {
		cands, err := b.leafCandidates(i)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part{mask: 1 << uint(i), plan: cheapest(cands)})
	}
	for len(parts) > 1 {
		bestI, bestJ := -1, -1
		var bestPlan physical.Plan
		bestCost := math.Inf(1)
		for i := 0; i < len(parts); i++ {
			for j := 0; j < len(parts); j++ {
				if i == j {
					continue
				}
				preds := b.joinPreds(parts[i].mask, parts[j].mask)
				if len(preds) == 0 && !b.opt.Opts.CartesianProducts && len(parts) > 2 {
					continue
				}
				mask := parts[i].mask | parts[j].mask
				rows := b.card(mask)
				cands := b.opt.joinCandidates(logical.InnerJoin,
					[]physical.Plan{parts[i].plan}, []physical.Plan{parts[j].plan},
					b.rightLeafLogical(parts[j].mask), preds, rows)
				if len(cands) == 0 {
					continue
				}
				p := cheapest(cands)
				if _, c := p.Estimate(); c < bestCost {
					bestI, bestJ, bestPlan, bestCost = i, j, p, c
				}
			}
		}
		if bestI < 0 {
			// Forced Cartesian product.
			for i := 0; i < len(parts); i++ {
				for j := 0; j < len(parts); j++ {
					if i == j {
						continue
					}
					mask := parts[i].mask | parts[j].mask
					rows := b.card(mask)
					cands := b.opt.joinCandidates(logical.InnerJoin,
						[]physical.Plan{parts[i].plan}, []physical.Plan{parts[j].plan},
						b.rightLeafLogical(parts[j].mask), nil, rows)
					p := cheapest(cands)
					if _, c := p.Estimate(); c < bestCost {
						bestI, bestJ, bestPlan, bestCost = i, j, p, c
					}
				}
			}
		}
		if bestI < 0 {
			return nil, fmt.Errorf("systemr: greedy failed to combine partitions")
		}
		merged := part{mask: parts[bestI].mask | parts[bestJ].mask, plan: bestPlan}
		var next []part
		for k, p := range parts {
			if k != bestI && k != bestJ {
				next = append(next, p)
			}
		}
		parts = append(next, merged)
	}
	return parts[0].plan, nil
}
