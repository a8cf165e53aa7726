package db

import (
	"sort"
	"strings"

	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
	"resultdb/internal/storage"
)

// unchanged is the result cache's empty-delta check (the extend of
// cache.DoAt): it reports whether res, computed at the marks from of tables,
// is also sel's result at ec's snapshot, whose marks at extend from's by
// appended tails.
//
// A RESULTDB result is a set of base rows per relation (Definition 2.2), and
// the dialect only appends. Any join tuple of the new state that is not one
// of the old state uses an appended row at some alias over a changed table,
// and that row has a partner in every join neighbour of its alias. So when
// no tail row of any such alias passes its σ_F and semi-joins with every
// neighbour's filtered relation (at the new snapshot, tails included — which
// covers self-joins and both sides of an edge appended at once), the join
// tuples are the old ones, each reduced relation keeps the same rows, and
// the output bytes are the same.
//
// That last step needs every output to be exactly the rows that take part in
// a join tuple, selected over its base frame in base order: a semi-join
// reduction that folded nothing (Stats.Folds == 0). Anything else is reported
// changed and recomputed: single-table results (bags, ORDER BY/LIMIT), the
// Decompose strategy (no Stats), folds, and a changed table read by an
// IN-subquery, where an appended row can remove result rows.
func (d *Database) unchanged(ec execCtx, sel *sqlparse.Select, res *Result, tables []string, from, at []storage.Mark) bool {
	if !sel.ResultDB || res.Stats == nil || res.Stats.Folds > 0 {
		return false
	}
	changed := make(map[string]int, len(tables)) // changed table → rows res saw
	for i, name := range tables {
		if from[i] != at[i] {
			changed[strings.ToLower(name)] = from[i].Rows
		}
	}
	spec, err := engine.AnalyzeSPJ(stripResultDB(sel), ec.src)
	if err != nil || subqueryReads(spec, changed) {
		return false
	}
	ex := ec.executor()
	for _, r := range spec.Rels {
		if rows, ok := changed[strings.ToLower(r.Table)]; ok && !tailDangles(ex, spec, r, rows) {
			return false
		}
	}
	return true
}

// subqueryReads reports whether an IN-subquery of the statement's filters
// reads one of the tables.
func subqueryReads(spec *engine.SPJSpec, tables map[string]int) bool {
	found := false
	for _, conds := range spec.Filters {
		for _, c := range conds {
			sqlparse.WalkExpr(c, func(x sqlparse.Expr) {
				if sub, ok := x.(*sqlparse.InSubquery); ok {
					for _, name := range sqlparse.Tables(sub.Query) {
						_, hit := tables[strings.ToLower(name)]
						found = found || hit
					}
				}
			})
		}
	}
	return found
}

// tailDangles reports whether no row appended to r's table after its first
// from rows can be in a join tuple: the tail, filtered by r's σ_F, is
// semi-joined by each join neighbour in turn — smallest table first, so the
// cheapest probes go first — until it is empty. A neighbour is probed
// tail-first: the tail's keys pick the neighbour's candidate rows, and only
// those are filtered by its σ_F. An error anywhere (a filter failing at run
// time, say) reports that the tail may join; the recomputation then meets the
// error as any execution would.
func tailDangles(ex *engine.Executor, spec *engine.SPJSpec, r engine.RelRef, from int) bool {
	t, err := ex.Src.Table(r.Table)
	if err != nil {
		return false
	}
	tailPos := make([]int32, t.Len()-from)
	for i := range tailPos {
		tailPos[i] = int32(from + i)
	}
	tail, err := ex.ScanRows(r, spec.Filters[r.Alias], tailPos)
	if err != nil {
		return false
	}
	for _, nb := range neighbours(ex, spec, r.Alias) {
		if tail.Len() == 0 {
			return true
		}
		all, err := ex.ScanRows(nb, nil, nil)
		if err != nil {
			return false
		}
		tailCols, nbCols, ok := edgeKey(spec, r.Alias, nb.Alias, tail, all)
		if !ok {
			return false
		}
		cand := engine.SemiJoin(all, nbCols, tail, tailCols, ex.Parallelism, nil)
		partners, err := ex.ScanRows(nb, spec.Filters[nb.Alias], cand.Vec.Sel)
		if err != nil {
			return false
		}
		tail = engine.SemiJoin(tail, tailCols, partners, nbCols, ex.Parallelism, nil)
	}
	return tail.Len() == 0
}

// neighbours lists the relations joined with alias, smallest table first
// (FROM order among equals).
func neighbours(ex *engine.Executor, spec *engine.SPJSpec, alias string) []engine.RelRef {
	var out []engine.RelRef
	rows := map[string]int{}
	for _, n := range spec.Rels {
		if strings.EqualFold(n.Alias, alias) || len(edgePreds(spec, alias, n.Alias)) == 0 {
			continue
		}
		if t, err := ex.Src.Table(n.Table); err == nil {
			rows[n.Alias] = t.Len()
		}
		out = append(out, n)
	}
	sort.SliceStable(out, func(i, j int) bool { return rows[out[i].Alias] < rows[out[j].Alias] })
	return out
}

// edgePreds lists the join predicates between aliases a and b, each oriented
// a = b.
func edgePreds(spec *engine.SPJSpec, a, b string) []engine.JoinPred {
	var out []engine.JoinPred
	for _, jp := range spec.JoinPreds {
		switch {
		case strings.EqualFold(jp.LeftRel, a) && strings.EqualFold(jp.RightRel, b):
			out = append(out, jp)
		case strings.EqualFold(jp.LeftRel, b) && strings.EqualFold(jp.RightRel, a):
			out = append(out, jp.Reverse())
		}
	}
	return out
}

// edgeKey resolves the key columns of the edge between aliases a and b: the
// positions in ra (a's relation) and rb (b's) of the attributes every
// predicate of the edge equates.
func edgeKey(spec *engine.SPJSpec, a, b string, ra, rb *engine.Relation) (aCols, bCols []int, ok bool) {
	for _, jp := range edgePreds(spec, a, b) {
		i, err := ra.ColIndex(a, jp.LeftCol)
		if err != nil {
			return nil, nil, false
		}
		j, err := rb.ColIndex(b, jp.RightCol)
		if err != nil {
			return nil, nil, false
		}
		aCols, bCols = append(aCols, i), append(bCols, j)
	}
	return aCols, bCols, true
}
