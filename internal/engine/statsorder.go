package engine

import (
	"strings"

	"resultdb/internal/stats"
	"resultdb/internal/trace"
)

// joinAllStats is JoinAll with a statistics-driven join order: instead of
// picking the connected relation with the smallest raw cardinality, it picks
// the one minimizing the estimated join output under the standard NDV
// containment model |A ⋈ B| ≈ |A|·|B| / Π_p max(ndv_A(p), ndv_B(p)), with
// per-column NDVs taken from base-table statistics and capped by the current
// (actual) cardinalities. Actual cardinalities are used wherever they are
// known — the intermediate result and every base relation are materialized,
// so only join output sizes are estimates.
//
// The join ORDER may differ from JoinAll's; each individual hash join is the
// identical operator, so the joined row multiset is the same (row order
// within the result depends on the order, which is why differential tests
// canonicalize with ORDER BY before comparing the two planners byte-wise).
func joinAllStats(spec *SPJSpec, rels map[string]*Relation, statsOf func(table string) *stats.Table, par int, tr *trace.Tracer) (*Relation, error) {
	preds := spec.JoinPreds
	statsByAlias := make(map[string]*stats.Table, len(spec.Rels))
	for _, r := range spec.Rels {
		statsByAlias[strings.ToLower(r.Alias)] = statsOf(r.Table)
	}
	ndvOf := func(rel *Relation, col int, cap_ int) float64 {
		c := rel.Cols[col]
		cs := statsByAlias[strings.ToLower(c.Rel)].Col(c.Name)
		d := float64(cap_)
		if cs != nil && cs.NDV > 0 && float64(cs.NDV) < d {
			d = float64(cs.NDV)
		}
		if d < 1 {
			d = 1
		}
		return d
	}

	remaining := make(map[string]*Relation, len(rels))
	for k, v := range rels {
		remaining[k] = v
	}

	// Seed: smallest actual cardinality, ties towards the smaller alias —
	// the same deterministic seed rule as JoinAll.
	var curAlias string
	for alias, rel := range remaining {
		if curAlias == "" ||
			rel.Len() < remaining[curAlias].Len() ||
			rel.Len() == remaining[curAlias].Len() && alias < curAlias {
			curAlias = alias
		}
	}
	cur := remaining[curAlias]
	delete(remaining, curAlias)
	inSet := map[string]bool{curAlias: true}

	// estJoin estimates |cur ⋈ rel| for a candidate, returning whether any
	// predicate connects it (candidates with no predicate are cross
	// products, estimated at |cur|·|rel|).
	estJoin := func(alias string, rel *Relation) (float64, bool) {
		est := float64(cur.Len()) * float64(rel.Len())
		connected := false
		for _, j := range preds {
			l, r := strings.ToLower(j.LeftRel), strings.ToLower(j.RightRel)
			var side JoinPred
			switch {
			case inSet[l] && r == alias:
				side = j
			case inSet[r] && l == alias:
				side = j.Reverse()
			default:
				continue
			}
			li, err := cur.ColIndex(side.LeftRel, side.LeftCol)
			if err != nil {
				continue
			}
			ri, err := rel.ColIndex(side.RightRel, side.RightCol)
			if err != nil {
				continue
			}
			connected = true
			ndvL := ndvOf(cur, li, cur.Len())
			ndvR := ndvOf(rel, ri, rel.Len())
			d := ndvL
			if ndvR > d {
				d = ndvR
			}
			est /= d
		}
		return est, connected
	}

	for len(remaining) > 0 {
		// Choose the next relation: smallest estimated join output among
		// connected candidates, else the smallest relation overall (the
		// cross product is deferred as long as possible, like JoinAll).
		next := ""
		nextConnected := false
		nextEst := 0.0
		for alias, rel := range remaining {
			est, c := estJoin(alias, rel)
			switch {
			case next == "":
			case c && !nextConnected:
			case c != nextConnected:
				continue
			case est < nextEst:
			case est == nextEst && alias < next:
			default:
				continue
			}
			next, nextConnected, nextEst = alias, c, est
		}
		nrel := remaining[next]
		delete(remaining, next)
		var err error
		cur, err = joinStep(cur, inSet, next, nrel, preds, par, tr, int(nextEst+0.5))
		if err != nil {
			return nil, err
		}
		inSet[next] = true
	}
	return cur, nil
}
