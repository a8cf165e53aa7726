package engine

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"resultdb/internal/colstore"
	"resultdb/internal/trace"
)

// maxDPRelations bounds the dynamic-programming join-order search; beyond
// it the greedy order is used (2^n subsets get expensive past this point).
const maxDPRelations = 14

// JoinAllDP joins all relations using a DPsize-style optimal bushy join
// order under a textbook cardinality model:
//
//	|S ⋈_p T| = |S| * |T| / Π_c max(ndv_S(c), ndv_T(c))
//
// with per-attribute distinct counts measured exactly on the (filtered)
// base relations — the moral equivalent of the paper injecting true
// cardinalities into mutable's optimizer. Plan cost is the sum of estimated
// intermediate cardinalities; the greedy order (JoinAll) remains the
// default and the fallback for queries beyond maxDPRelations.
//
// Planning is serial; the chosen plan's hash joins execute at degree par
// (0 = auto, 1 = serial), one span per join on tr (nil = tracing disabled).
func JoinAllDP(preds []JoinPred, rels map[string]*Relation, par int, tr *trace.Tracer) (*Relation, error) {
	if len(rels) < 2 || len(rels) > maxDPRelations {
		return JoinAll(preds, rels, nil, par, tr)
	}
	opt, err := newOptimizer(preds, rels)
	if err != nil {
		return nil, err
	}
	opt.par = par
	opt.tr = tr
	root, err := opt.plan()
	if err != nil {
		return nil, err
	}
	return opt.execute(root)
}

// optimizer carries the DP state.
type optimizer struct {
	// par is the degree of parallelism for executing the chosen plan.
	par int
	// tr records one span per executed plan join (nil = disabled).
	tr      *trace.Tracer
	aliases []string // index -> alias (lower-cased), deterministic order
	base    []*Relation
	preds   []JoinPred
	// predSides[i] = (left index, right index) for preds[i].
	predSides [][2]int

	// ndv[i] maps attr key (alias.col) -> distinct count in base[i].
	ndv []map[string]float64

	// DP tables keyed by subset bitmask.
	bestCost map[uint32]float64
	bestRows map[uint32]float64
	bestPlan map[uint32]*planNode
}

// planNode is a node of the chosen bushy join tree.
type planNode struct {
	mask        uint32
	left, right *planNode // nil for leaves
	leaf        int       // leaf relation index when left == nil
}

func newOptimizer(preds []JoinPred, rels map[string]*Relation) (*optimizer, error) {
	opt := &optimizer{
		preds:    preds,
		bestCost: map[uint32]float64{},
		bestRows: map[uint32]float64{},
		bestPlan: map[uint32]*planNode{},
	}
	for alias := range rels {
		opt.aliases = append(opt.aliases, alias)
	}
	// Deterministic order.
	for i := 1; i < len(opt.aliases); i++ {
		for j := i; j > 0 && opt.aliases[j] < opt.aliases[j-1]; j-- {
			opt.aliases[j], opt.aliases[j-1] = opt.aliases[j-1], opt.aliases[j]
		}
	}
	idxOf := map[string]int{}
	for i, a := range opt.aliases {
		idxOf[a] = i
		opt.base = append(opt.base, rels[a])
	}
	for _, p := range preds {
		l, lok := idxOf[strings.ToLower(p.LeftRel)]
		r, rok := idxOf[strings.ToLower(p.RightRel)]
		if !lok || !rok {
			return nil, fmt.Errorf("engine: join predicate %s references unknown relation", p)
		}
		opt.predSides = append(opt.predSides, [2]int{l, r})
	}
	// Exact NDVs of join attributes on the filtered base relations.
	opt.ndv = make([]map[string]float64, len(opt.base))
	for i := range opt.base {
		opt.ndv[i] = map[string]float64{}
	}
	for pi, p := range preds {
		sides := opt.predSides[pi]
		opt.measureNDV(sides[0], p.LeftRel, p.LeftCol)
		opt.measureNDV(sides[1], p.RightRel, p.RightCol)
	}
	return opt, nil
}

func attrKeyOf(rel, col string) string {
	return strings.ToLower(rel) + "." + strings.ToLower(col)
}

func (o *optimizer) measureNDV(idx int, rel, col string) {
	key := attrKeyOf(rel, col)
	if _, done := o.ndv[idx][key]; done {
		return
	}
	r := o.base[idx]
	ci, err := r.ColIndex(rel, col)
	if err != nil {
		o.ndv[idx][key] = 1
		return
	}
	n := float64(colstore.BuildKeySet(r.Key([]int{ci})).Len())
	if n < 1 {
		n = 1
	}
	o.ndv[idx][key] = n
}

// plan runs DPsize and returns the optimal plan for the full set.
func (o *optimizer) plan() (*planNode, error) {
	n := len(o.aliases)
	full := uint32(1)<<n - 1
	for i := 0; i < n; i++ {
		m := uint32(1) << i
		o.bestCost[m] = 0
		o.bestRows[m] = float64(o.base[i].Len())
		o.bestPlan[m] = &planNode{mask: m, leaf: i}
	}
	for size := 2; size <= n; size++ {
		for mask := uint32(1); mask <= full; mask++ {
			if bits.OnesCount32(mask) != size {
				continue
			}
			// Enumerate splits: sub iterates proper non-empty subsets.
			var best *planNode
			bestCost := math.Inf(1)
			bestRows := 0.0
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				rest := mask &^ sub
				if sub < rest {
					continue // each split considered once
				}
				lp, lok := o.bestPlan[sub]
				rp, rok := o.bestPlan[rest]
				if !lok || !rok {
					continue
				}
				crossPreds := o.predsAcross(sub, rest)
				rows := o.estimateJoin(sub, rest, crossPreds)
				cost := o.bestCost[sub] + o.bestCost[rest] + rows
				if len(crossPreds) == 0 {
					// Cross products are admissible but strongly penalized.
					cost += rows * 10
				}
				if cost < bestCost {
					bestCost = cost
					bestRows = rows
					best = &planNode{mask: mask, left: lp, right: rp}
				}
			}
			if best != nil {
				o.bestCost[mask] = bestCost
				o.bestRows[mask] = bestRows
				o.bestPlan[mask] = best
			}
		}
	}
	root, ok := o.bestPlan[full]
	if !ok {
		return nil, fmt.Errorf("engine: DP found no plan (bug)")
	}
	return root, nil
}

// predsAcross lists predicate indices with one side in each subset.
func (o *optimizer) predsAcross(a, b uint32) []int {
	var out []int
	for pi, sides := range o.predSides {
		l, r := uint32(1)<<sides[0], uint32(1)<<sides[1]
		if a&l != 0 && b&r != 0 || a&r != 0 && b&l != 0 {
			out = append(out, pi)
		}
	}
	return out
}

// estimateJoin applies the NDV model for joining two planned subsets.
func (o *optimizer) estimateJoin(a, b uint32, crossPreds []int) float64 {
	rows := o.bestRows[a] * o.bestRows[b]
	for _, pi := range crossPreds {
		p := o.preds[pi]
		sides := o.predSides[pi]
		lk := attrKeyOf(p.LeftRel, p.LeftCol)
		rk := attrKeyOf(p.RightRel, p.RightCol)
		lNDV := o.subsetNDV(a, sides[0], lk)
		if a&(1<<sides[0]) == 0 {
			lNDV = o.subsetNDV(a, sides[1], rk)
		}
		rNDV := o.subsetNDV(b, sides[1], rk)
		if b&(1<<sides[1]) == 0 {
			rNDV = o.subsetNDV(b, sides[0], lk)
		}
		rows /= math.Max(math.Max(lNDV, rNDV), 1)
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// subsetNDV estimates the distinct count of one attribute within a planned
// subset: the base NDV capped by the subset's estimated cardinality.
func (o *optimizer) subsetNDV(mask uint32, baseIdx int, key string) float64 {
	n, ok := o.ndv[baseIdx][key]
	if !ok {
		n = 1
	}
	if rows, ok := o.bestRows[mask]; ok && rows < n {
		n = rows
	}
	if n < 1 {
		n = 1
	}
	return n
}

// execute materializes the chosen plan bottom-up with hash joins.
func (o *optimizer) execute(n *planNode) (*Relation, error) {
	if n.left == nil {
		return o.base[n.leaf], nil
	}
	l, err := o.execute(n.left)
	if err != nil {
		return nil, err
	}
	r, err := o.execute(n.right)
	if err != nil {
		return nil, err
	}
	var lCols, rCols []int
	for _, pi := range o.predsAcross(n.left.mask, n.right.mask) {
		p := o.preds[pi]
		sides := o.predSides[pi]
		side := p
		if n.left.mask&(1<<sides[0]) == 0 {
			side = p.Reverse()
		}
		li, err := l.ColIndex(side.LeftRel, side.LeftCol)
		if err != nil {
			return nil, err
		}
		ri, err := r.ColIndex(side.RightRel, side.RightCol)
		if err != nil {
			return nil, err
		}
		lCols = append(lCols, li)
		rCols = append(rCols, ri)
	}
	var sp *trace.Span
	if o.tr.Enabled() {
		op := "hash-join"
		if len(lCols) == 0 {
			op = "cross-join"
		}
		sp = o.tr.Span(op, o.maskLabel(n.right.mask))
		sp.Phase = "join"
		sp.Keys = len(lCols)
		sp.RowsIn = l.Len()
		sp.RowsBuild = r.Len()
	}
	joined := HashJoin(l, r, lCols, rCols, o.par, sp)
	if sp != nil {
		sp.RowsOut = joined.Len()
		o.tr.AddRowsJoined(joined.Len())
	}
	return joined, nil
}

// maskLabel names a plan subtree by its relation aliases, in deterministic
// index order.
func (o *optimizer) maskLabel(mask uint32) string {
	var parts []string
	for i, a := range o.aliases {
		if mask&(1<<uint(i)) != 0 {
			parts = append(parts, a)
		}
	}
	return strings.Join(parts, ",")
}
