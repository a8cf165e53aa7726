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
// Output schema is l's columns followed by r's. The loop over l's rows runs in
// parallel chunks at degree par (0 = auto, 1 = serial) with per-chunk output
// buffers merged in input order, so the result is bit-identical to serial
// execution at any degree. A non-nil sp records the wall time, the effective
// degree, and the morsel count; a nil sp skips all clock reads.
func crossJoin(l, r *Relation, par int, sp *trace.Span) *Relation {
	out := &Relation{Cols: concatCols(l.Cols, r.Cols)}
	var t0 time.Time
	if sp != nil {
		sp.Par = parallel.Degree(par)
		sp.Morsels = parallel.Chunks(len(l.Rows), par)
		t0 = time.Now()
	}
	out.Rows = parallel.Map(len(l.Rows), par, func(lo, hi int) []types.Row {
		rows := make([]types.Row, 0, (hi-lo)*len(r.Rows))
		for _, lr := range l.Rows[lo:hi] {
			for _, rr := range r.Rows {
				rows = append(rows, concatRows(lr, rr))
			}
		}
		return rows
	})
	if sp != nil {
		sp.ProbeNS = time.Since(t0).Nanoseconds()
	}
	return out
}

// joinOn joins l and r with an arbitrary ON expression, inner or left outer.
// Equi conjuncts of the ON tree probe the same colstore hash table HashJoin
// builds; remaining conjuncts are evaluated per candidate pair. For a left
// outer join, unmatched left rows are padded with NULLs.
//
// The probe over l's rows runs in parallel chunks (bound expressions are
// pure after binding, so concurrent evaluation is safe); per-chunk buffers
// keep the output order identical to the serial loop.
func joinOn(l, r *Relation, on sqlparse.Expr, outer bool, sub SubqueryRunner, par int) (*Relation, error) {
	combined := &Relation{Cols: concatCols(l.Cols, r.Cols)}

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
	var check boundExpr
	if len(residual) > 0 {
		b := &binder{rel: combined, sub: sub}
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
		ht = colstore.BuildHashTable(KeyFor(r, rCols), par)
		pk = KeyFor(l, lCols)
	}
	nullPad := make(types.Row, len(r.Cols))
	rows, err := parallel.MapErr(len(l.Rows), par, func(lo, hi int) ([]types.Row, error) {
		chunk := make([]types.Row, 0, hi-lo)
		var prober colstore.Prober
		if ht != nil {
			prober = ht.Prober(pk)
		}
		for j := lo; j < hi; j++ {
			lr := l.Rows[j]
			matched := false
			var pairErr error
			try := func(pos int32) {
				if pairErr != nil {
					return
				}
				row := concatRows(lr, r.Rows[pos])
				if check != nil {
					v, err := check(row)
					if err != nil || !truthy(v) {
						pairErr = err
						return
					}
				}
				matched = true
				chunk = append(chunk, row)
			}
			if ht != nil {
				prober.Each(j, try)
			} else {
				for pos := 0; pos < len(r.Rows) && pairErr == nil; pos++ {
					try(int32(pos))
				}
			}
			if pairErr != nil {
				return nil, pairErr
			}
			if outer && !matched {
				chunk = append(chunk, concatRows(lr, nullPad))
			}
		}
		return chunk, nil
	})
	if err != nil {
		return nil, err
	}
	combined.Rows = rows
	return combined, nil
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

func concatRows(a, b types.Row) types.Row {
	out := make(types.Row, 0, len(a)+len(b))
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
