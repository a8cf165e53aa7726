package engine

import (
	"fmt"
	"time"

	"resultdb/internal/colstore"
	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// crossJoin is the Cartesian product l × r (a join with no equi predicate).
// Output schema is l's columns followed by r's, rows in l-major order — every
// (l position, r position) pair, gathered like any join output. A non-nil sp
// records the wall time, the effective degree, and the morsel count; a nil sp
// skips all clock reads.
func crossJoin(l, r *Relation, par int, sp *trace.Span) *Relation {
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	lpos, rpos := crossPositions(l.Len(), r.Len(), par, sp)
	out := gatherPairs(l, r, lpos, rpos, par)
	if sp != nil {
		sp.ProbeNS = time.Since(t0).Nanoseconds()
	}
	return out
}

// crossPositions lists the pairs of an nl × nr Cartesian product, l-major:
// lpos[i] and rpos[i] are the two sides' positions in output row i. A non-nil
// sp records the effective degree, the morsel count and the time taken.
func crossPositions(nl, nr, par int, sp *trace.Span) (lpos, rpos []int32) {
	var t0 time.Time
	if sp != nil {
		sp.Par = parallel.Degree(par)
		sp.Morsels = parallel.Chunks(nl, par)
		t0 = time.Now()
	}
	lpos, rpos = make([]int32, 0, nl*nr), make([]int32, 0, nl*nr)
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			lpos, rpos = append(lpos, int32(i)), append(rpos, int32(j))
		}
	}
	if sp != nil {
		sp.ProbeNS = time.Since(t0).Nanoseconds()
	}
	return lpos, rpos
}

// joinOn joins l and r with an arbitrary ON expression, inner or left outer.
// Equi conjuncts of the ON tree probe the same colstore hash table HashJoin
// builds, with r as the build side; an inner join on equi conjuncts alone is
// exactly that hash join. Otherwise the remaining conjuncts are evaluated per
// candidate pair through the cursor — the cells they read of the l row boxed
// once, of each candidate r row as it comes up — and what is emitted is, like
// every join, position pairs: (l position, r position) for a pair that
// passes, (l position, -1) for a left outer row nothing matched, which the
// gather extends with NULLs.
//
// The probe over l's rows runs in parallel chunks (bound expressions are
// pure after binding, so concurrent evaluation is safe); per-chunk buffers
// keep the output order identical to the serial loop.
func (e *Executor) joinOn(l, r *Relation, on sqlparse.Expr, outer bool) (*Relation, error) {
	par := e.Parallelism
	// Split ON into hashable equi pairs and a residual.
	var lCols, rCols []int
	var residual []sqlparse.Expr
	for _, c := range sqlparse.Conjuncts(on) {
		li, ri, ok := equiPair(c, l, r)
		if ok {
			lCols = append(lCols, li)
			rCols = append(rCols, ri)
			continue
		}
		residual = append(residual, c)
	}
	if len(lCols) > 0 && len(residual) == 0 && !outer {
		return equiJoin(l, r, lCols, rCols, false, par, nil), nil
	}
	b := e.binder(concatCols(l.Cols, r.Cols))
	var check boundExpr
	if len(residual) > 0 {
		var err error
		check, err = b.bind(sqlparse.AndAll(residual))
		if err != nil {
			return nil, err
		}
	}

	// Candidates for an l row are the hash table's matches when ON has an
	// equi conjunct, every r row otherwise (nested loop).
	var ht *colstore.HashTable
	var pk colstore.Key
	if len(lCols) > 0 {
		ht = colstore.BuildHashTable(r.Key(rCols), par)
		pk = l.Key(lCols)
	}
	pairs, err := parallel.MapErr(l.Len(), par, func(lo, hi int) ([]joinPair, error) {
		out := make([]joinPair, 0, hi-lo)
		row := make(types.Row, len(b.cols))
		loadL, loadR := b.cursor(row, l.Vec.Frame, 0), b.cursor(row, r.Vec.Frame, len(l.Cols))
		var prober colstore.Prober
		if ht != nil {
			prober = ht.Prober(pk)
		}
		var j int
		var matched bool
		var pairErr error
		try := func(pos int32) {
			if pairErr != nil {
				return
			}
			if check != nil {
				loadR(r.Vec.Index(int(pos)))
				v, err := check(row)
				if err != nil || !truthy(v) {
					pairErr = err
					return
				}
			}
			matched = true
			out = append(out, joinPair{probe: int32(j), build: pos})
		}
		for j = lo; j < hi; j++ {
			loadL(l.Vec.Index(j))
			matched = false
			if ht != nil {
				prober.Each(j, try)
			} else {
				for pos := 0; pos < r.Len() && pairErr == nil; pos++ {
					try(int32(pos))
				}
			}
			if pairErr != nil {
				return nil, pairErr
			}
			if outer && !matched {
				out = append(out, joinPair{probe: int32(j), build: -1})
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	lpos, rpos := splitPairs(pairs)
	return gatherPairs(l, r, lpos, rpos, par), nil
}

// equiPair recognizes an ON conjunct "x = y" where one side resolves in l
// and the other in r; returns their column positions.
func equiPair(e sqlparse.Expr, l, r *Relation) (li, ri int, ok bool) {
	b, isBin := e.(*sqlparse.Binary)
	if !isBin || b.Op != sqlparse.OpEq {
		return 0, 0, false
	}
	lc, lok := b.L.(*sqlparse.ColumnRef)
	rc, rok := b.R.(*sqlparse.ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	if i, err := l.ColIndex(lc.Table, lc.Column); err == nil {
		if j, err := r.ColIndex(rc.Table, rc.Column); err == nil {
			return i, j, true
		}
	}
	if i, err := l.ColIndex(rc.Table, rc.Column); err == nil {
		if j, err := r.ColIndex(lc.Table, lc.Column); err == nil {
			return i, j, true
		}
	}
	return 0, 0, false
}

func concatCols(a, b []ColRef) []ColRef {
	out := make([]ColRef, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// crossCheck asserts both column lists have equal length; join construction
// bugs fail loudly instead of corrupting results.
func crossCheck(lCols, rCols []int) error {
	if len(lCols) != len(rCols) {
		return fmt.Errorf("engine: mismatched join key arity %d vs %d", len(lCols), len(rCols))
	}
	return nil
}
