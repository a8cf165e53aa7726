package engine

// Columnar execution: the engine side of internal/colstore.
//
// Every operator reads a relation through one colstore key form, ViewKey over
// its frame and selection. A base-table scan is the table's columnar image
// under the selection its filter kept; a semi-join narrows that selection; a
// hash join emits (left position, right position) pairs and gathers each
// side's columns once, sharing TEXT dictionaries with its inputs — so a fold
// node semi-joins a base relation by dictionary code, and hashes are the same
// inlined FNV-1a whatever the column representation
// (types.Value.HashFNV == colstore.Column.HashFNV).
//
// Results are the same rows in the same order, with the same trace
// cardinalities, at any parallelism degree.
//
// Scan filters are compiled into colstore kernels under a prefix rule: the
// longest prefix of the pushed-down conjuncts that maps onto typed kernels
// runs columnar (dictionary-mask text predicates, typed numeric comparisons,
// IS NULL tests), each kernel clearing the bits of the rows it fails in a
// mask of the candidates, and parallel.Positions writes the survivors once,
// as it writes a semi-join's; the remaining conjuncts are bound and
// evaluated row-at-a-time over the survivors, in order. All kernels are error-free, and
// either way a row is dropped at the first conjunct that is not TRUE. That
// defines the error semantics of a pushed-down conjunctive filter: when an
// earlier conjunct evaluates to NULL (or FALSE) for a row, later conjuncts
// are not evaluated for it, so their runtime errors (e.g. LIKE on a non-text
// value) do not surface.

import (
	"time"

	"resultdb/internal/colstore"
	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// baseRelation scans one base table into an alias-qualified relation,
// applying the pushed-down filter conjuncts during the scan: compiled kernels
// filter the table's columnar image and the bound expression evaluates
// whatever conjuncts have no kernel over the survivors. The relation is the
// view the filter produced; no row is touched unless a residual conjunct
// needs it.
func (e *Executor) baseRelation(r RelRef, filters []sqlparse.Expr) (*Relation, error) {
	return e.ScanRows(r, filters, nil)
}

// ScanRows is the scan of baseRelation restricted to the table rows at the
// ascending frame positions sel (nil: every row): the filter runs over those
// rows only, and the relation selects the ones that pass. The result
// cache's empty-delta check scans a version's appended tail, and a join
// neighbour's candidate rows, with it.
func (e *Executor) ScanRows(r RelRef, filters []sqlparse.Expr, sel []int32) (*Relation, error) {
	t, err := e.Src.Table(r.Table)
	if err != nil {
		return nil, err
	}
	f := t.Columns()
	cols := make([]ColRef, len(t.Def.Columns))
	for i, c := range t.Def.Columns {
		cols[i] = ColRef{Rel: r.Alias, Name: c.Name, Kind: c.Type}
	}
	var sp *trace.Span
	var t0 time.Time
	if e.Tracer.Enabled() {
		sp = e.Tracer.Span("scan", r.Table+" AS "+r.Alias)
		sp.Phase = "scan"
		sp.Detail = "true"
		if len(filters) > 0 {
			sp.Detail = sqlparse.AndAll(filters).SQL()
		}
		sp.RowsIn = f.Rows()
		sp.Par = parallel.Degree(e.Parallelism)
		sp.Morsels = parallel.Chunks(f.Rows(), e.Parallelism)
		sp.Dict = f.DictEntries()
		t0 = time.Now()
	}
	kernels, residual := compileScanKernels(f, cols, filters)
	view, err := e.filterView(f, sel, cols, kernels, residual)
	if err != nil {
		return nil, err
	}
	rel := &Relation{Cols: cols, Vec: view}
	if sp != nil {
		sp.RowsOut = rel.Len()
		sp.DurNS = time.Since(t0).Nanoseconds()
	}
	return rel, nil
}

// filterView selects the rows of f at the positions sel (nil: every row)
// that pass every kernel and then every residual conjunct (keep, over the
// kernels' survivors).
func (e *Executor) filterView(f *colstore.Frame, sel []int32, cols []ColRef, kernels []colstore.Kernel, residual []sqlparse.Expr) (*colstore.View, error) {
	view := &colstore.View{Frame: f, Sel: sel}
	if len(kernels) > 0 {
		view.Sel = colstore.RunKernels(f.Rows(), sel, kernels, e.Parallelism)
	}
	if len(residual) == 0 {
		return view, nil
	}
	kept, err := e.keep(view, e.binder(cols), residual)
	if err != nil {
		return nil, err
	}
	return view.Narrow(kept), nil
}

// keep returns the positions of view's rows for which every conjunct is TRUE.
// The conjuncts are bound by b, against view's schema, one by one and
// evaluated row-at-a-time through the cursor — the cells they read boxed into
// one reused row per worker — in order, stopping at the first that is not
// TRUE: the same drop-at-first-failure rule the kernel prefix follows, so
// which conjuncts happen to have a kernel never decides whether a later
// conjunct's runtime error surfaces. Chunks run in parallel (bound
// expressions are pure after binding) and merge in input order.
func (e *Executor) keep(view *colstore.View, b *binder, conds []sqlparse.Expr) ([]int32, error) {
	checks := make([]boundExpr, len(conds))
	for i, cond := range conds {
		var err error
		if checks[i], err = b.bind(cond); err != nil {
			return nil, err
		}
	}
	return parallel.MapErr(view.Len(), e.Parallelism, func(lo, hi int) ([]int32, error) {
		out := make([]int32, 0, hi-lo)
		row := make(types.Row, len(b.cols))
		load := b.cursor(row, view.Frame, 0)
	rows:
		for j := lo; j < hi; j++ {
			load(view.Index(j))
			for _, check := range checks {
				v, err := check(row)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					continue rows
				}
			}
			out = append(out, int32(j))
		}
		return out, nil
	})
}

// compileScanKernels maps the longest kernelizable prefix of the pushed-down
// conjuncts onto colstore kernels; the rest is returned as the row-wise
// residual, in original order (see the prefix rule in this file's header).
func compileScanKernels(f *colstore.Frame, cols []ColRef, filters []sqlparse.Expr) ([]colstore.Kernel, []sqlparse.Expr) {
	var kernels []colstore.Kernel
	for i, cond := range filters {
		k, ok := compileKernel(f, cols, cond)
		if !ok {
			return kernels, filters[i:]
		}
		kernels = append(kernels, k)
	}
	return kernels, nil
}

// litOf unwraps a literal expression.
func litOf(e sqlparse.Expr) (types.Value, bool) {
	if l, ok := e.(*sqlparse.Literal); ok {
		return l.Value, true
	}
	return types.Value{}, false
}

// colOf resolves a column reference against cols, returning its position.
func colOf(e sqlparse.Expr, cols []ColRef) (int, bool) {
	cr, ok := e.(*sqlparse.ColumnRef)
	if !ok {
		return 0, false
	}
	idx, err := colIndex(cols, cr.Table, cr.Column)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// cmpOpOf maps a parser comparison operator to the kernel enum.
func cmpOpOf(op sqlparse.BinaryOp) (colstore.CmpOp, bool) {
	switch op {
	case sqlparse.OpEq:
		return colstore.CmpEq, true
	case sqlparse.OpNe:
		return colstore.CmpNe, true
	case sqlparse.OpLt:
		return colstore.CmpLt, true
	case sqlparse.OpLe:
		return colstore.CmpLe, true
	case sqlparse.OpGt:
		return colstore.CmpGt, true
	case sqlparse.OpGe:
		return colstore.CmpGe, true
	}
	return 0, false
}

// flipCmp mirrors an operator across the comparison (lit op col ≡ col op' lit).
func flipCmp(op colstore.CmpOp) colstore.CmpOp {
	switch op {
	case colstore.CmpLt:
		return colstore.CmpGt
	case colstore.CmpLe:
		return colstore.CmpGe
	case colstore.CmpGt:
		return colstore.CmpLt
	case colstore.CmpGe:
		return colstore.CmpLe
	}
	return op // Eq, Ne are symmetric
}

// sampleOf returns an arbitrary non-NULL value of the column's kind, used to
// evaluate cross-kind comparisons once (types.Compare orders distinct
// non-numeric kinds by kind tag, so the result is constant over the column).
func sampleOf(col colstore.Column) (types.Value, bool) {
	switch col.(type) {
	case *colstore.Int64Column:
		return types.NewInt(0), true
	case *colstore.Float64Column:
		return types.NewFloat(0), true
	case *colstore.BoolColumn:
		return types.NewBool(false), true
	case *colstore.TextColumn:
		return types.NewText(""), true
	}
	return types.Value{}, false
}

// constOrNonNull compiles a predicate whose outcome is the same for every
// non-NULL value of the column: keep all non-NULL rows or none.
func constOrNonNull(col colstore.Column, pass bool) colstore.Kernel {
	if pass {
		return colstore.NewNonNullKernel(col)
	}
	return colstore.NewConstKernel(false)
}

func numeric(v types.Value) bool {
	return v.Kind() == types.KindInt || v.Kind() == types.KindFloat
}

// compileKernel compiles one conjunct into a colstore kernel, or reports that
// it must stay in the row-wise residual. Supported shapes: column-vs-literal
// comparisons (either side order), BETWEEN with literal bounds, IN over a
// literal list, LIKE on a dictionary-encoded text column, IS [NOT] NULL.
// Every produced kernel reproduces the bound expression's three-valued
// semantics exactly (NULL never passes) and cannot raise a runtime error.
func compileKernel(f *colstore.Frame, cols []ColRef, e sqlparse.Expr) (colstore.Kernel, bool) {
	switch x := e.(type) {
	case *sqlparse.Binary:
		op, ok := cmpOpOf(x.Op)
		if !ok {
			return nil, false
		}
		idx, lit := 0, types.Value{}
		if ci, cok := colOf(x.L, cols); cok {
			lv, lok := litOf(x.R)
			if !lok {
				return nil, false
			}
			idx, lit = ci, lv
		} else if ci, cok := colOf(x.R, cols); cok {
			lv, lok := litOf(x.L)
			if !lok {
				return nil, false
			}
			idx, lit, op = ci, lv, flipCmp(op)
		} else {
			return nil, false
		}
		if lit.IsNull() {
			return colstore.NewConstKernel(false), true // cmp with NULL is NULL
		}
		col := f.Col(idx)
		switch c := col.(type) {
		case *colstore.TextColumn:
			// One types.Compare per distinct string; rows are a code lookup.
			return colstore.NewDictKernel(c, c.Keep(func(s string) bool {
				return colstore.EvalCmp(op, types.Compare(types.NewText(s), lit))
			})), true
		case *colstore.Int64Column, *colstore.Float64Column:
			if numeric(lit) {
				k, ok := colstore.NewNumCmpKernel(col, op, lit.Float())
				return k, ok
			}
			sample, _ := sampleOf(col)
			return constOrNonNull(col, colstore.EvalCmp(op, types.Compare(sample, lit))), true
		case *colstore.BoolColumn:
			if lit.Kind() == types.KindBool {
				return colstore.NewBoolKernel(c,
					colstore.EvalCmp(op, types.Compare(types.NewBool(true), lit)),
					colstore.EvalCmp(op, types.Compare(types.NewBool(false), lit))), true
			}
			sample, _ := sampleOf(col)
			return constOrNonNull(col, colstore.EvalCmp(op, types.Compare(sample, lit))), true
		}
		return nil, false // AnyColumn: mixed kinds, stay row-wise

	case *sqlparse.Between:
		idx, ok := colOf(x.E, cols)
		if !ok {
			return nil, false
		}
		lo, lok := litOf(x.Lo)
		hi, hok := litOf(x.Hi)
		if !lok || !hok {
			return nil, false
		}
		if lo.IsNull() || hi.IsNull() {
			return colstore.NewConstKernel(false), true // any NULL operand → NULL
		}
		between := func(v types.Value) bool {
			in := types.Compare(v, lo) >= 0 && types.Compare(v, hi) <= 0
			return in != x.Not
		}
		col := f.Col(idx)
		switch c := col.(type) {
		case *colstore.TextColumn:
			return colstore.NewDictKernel(c, c.Keep(func(s string) bool {
				return between(types.NewText(s))
			})), true
		case *colstore.Int64Column, *colstore.Float64Column:
			if numeric(lo) && numeric(hi) {
				k, ok := colstore.NewNumBetweenKernel(col, lo.Float(), hi.Float(), x.Not)
				return k, ok
			}
			sample, _ := sampleOf(col)
			return constOrNonNull(col, between(sample)), true
		case *colstore.BoolColumn:
			return colstore.NewBoolKernel(c,
				between(types.NewBool(true)), between(types.NewBool(false))), true
		}
		return nil, false

	case *sqlparse.InList:
		idx, ok := colOf(x.E, cols)
		if !ok {
			return nil, false
		}
		lits := make([]types.Value, len(x.List))
		for i, it := range x.List {
			v, ok := litOf(it)
			if !ok {
				return nil, false
			}
			lits[i] = v
		}
		// inPass reproduces the bound InList for a non-NULL probe value:
		// match → !Not; no match with a NULL item → UNKNOWN (drop); else Not.
		inPass := func(v types.Value) bool {
			sawNull := false
			for _, it := range lits {
				if it.IsNull() {
					sawNull = true
					continue
				}
				if types.Compare(v, it) == 0 {
					return !x.Not
				}
			}
			if sawNull {
				return false
			}
			return x.Not
		}
		col := f.Col(idx)
		switch c := col.(type) {
		case *colstore.TextColumn:
			return colstore.NewDictKernel(c, c.Keep(func(s string) bool {
				return inPass(types.NewText(s))
			})), true
		case *colstore.Int64Column, *colstore.Float64Column:
			var items []float64
			sawNull := false
			for _, it := range lits {
				switch {
				case it.IsNull():
					sawNull = true
				case numeric(it):
					items = append(items, it.Float())
				}
				// Non-numeric items can never equal a numeric value
				// (types.Compare orders distinct kinds); omit them.
			}
			k, ok := colstore.NewNumInKernel(col, items, x.Not, sawNull)
			return k, ok
		case *colstore.BoolColumn:
			return colstore.NewBoolKernel(c,
				inPass(types.NewBool(true)), inPass(types.NewBool(false))), true
		}
		return nil, false

	case *sqlparse.Like:
		idx, ok := colOf(x.E, cols)
		if !ok {
			return nil, false
		}
		// Only a typed TEXT column is safe: the bound expression raises an
		// error for LIKE on non-text values, which a kernel must not swallow.
		c, ok := f.Col(idx).(*colstore.TextColumn)
		if !ok {
			return nil, false
		}
		match := compileLike(x.Pattern)
		return colstore.NewDictKernel(c, c.Keep(func(s string) bool {
			return match(s) != x.Not
		})), true

	case *sqlparse.IsNull:
		idx, ok := colOf(x.E, cols)
		if !ok {
			return nil, false
		}
		return colstore.NewIsNullKernel(f.Col(idx), x.Not), true
	}
	return nil, false
}

// SemiJoin filters l to the rows whose key appears in r (l ⋉ r); the
// primitive of the paper's reduction phase (Section 4.1). The build side's
// distinct keys go into a position-based key set (no per-row key projection,
// dictionary-hash text keys), the probe over l's rows runs in parallel chunks
// at degree par (0 = auto, 1 = serial) marking the rows it keeps in bit
// masks, the kept positions are written once into a selection vector of
// exactly their number (parallel.Positions), and l's selection is narrowed
// to it, which the narrowed view takes over — no row or value is copied, no
// position twice, and when every row survives, l itself is returned. A non-nil sp
// records the build/probe wall-time split, degree, and morsel count; nil
// skips all clock reads.
func SemiJoin(l *Relation, lCols []int, r *Relation, rCols []int, par int, sp *trace.Span) *Relation {
	var t0 time.Time
	if sp != nil {
		sp.Par = parallel.Degree(par)
		sp.Morsels = parallel.Chunks(l.Len(), par)
		t0 = time.Now()
	}
	keys := colstore.BuildKeySet(r.Key(rCols))
	if sp != nil {
		sp.BuildNS = time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}
	probe := l.Key(lCols)
	kept := parallel.Positions(l.Len(), par, func(lo, hi int, mask []uint64) int {
		return keys.Select(probe, lo, hi, mask)
	})
	out := l
	if len(kept) < l.Len() {
		out = l.Narrow(kept)
	}
	if sp != nil {
		sp.ProbeNS = time.Since(t0).Nanoseconds()
	}
	return out
}

// HashJoin is the inner equi-join of l and r on lCols (positions in l) and
// rCols (positions in r); with empty column lists it is the Cartesian
// product. Output schema is l's columns followed by r's.
//
// The smaller input is indexed in a colstore.HashTable (hash-partitioned so
// the build runs in parallel), the larger is probed in contiguous row chunks
// at degree par (0 = auto, 1 = serial) with per-chunk output buffers merged
// in input order, so the result is bit-identical to serial execution at any
// degree. A non-nil sp records the build/probe wall-time split, the
// effective degree, and the morsel count; nil skips all clock reads.
func HashJoin(l, r *Relation, lCols, rCols []int, par int, sp *trace.Span) *Relation {
	if len(lCols) == 0 {
		return crossJoin(l, r, par, sp)
	}
	return equiJoin(l, r, lCols, rCols, r.Len() > l.Len(), par, sp)
}

// joinPair is one match of a hash probe: a row position on each side.
type joinPair struct{ build, probe int32 }

// equiJoin is HashJoin with the build side chosen by the caller (the probe
// side's order is the output's): the probe emits position pairs, and the
// output frame is gathered from them once per column.
func equiJoin(l, r *Relation, lCols, rCols []int, buildLeft bool, par int, sp *trace.Span) *Relation {
	lpos, rpos := equiPositions(l.Key(lCols), r.Key(rCols), buildLeft, par, sp)
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	out := gatherPairs(l, r, lpos, rpos, par)
	if sp != nil {
		sp.ProbeNS += time.Since(t0).Nanoseconds()
	}
	return out
}

// equiPositions is the hash join of the keys lk and rk, built on lk when
// buildLeft and on rk otherwise: the position lpos[i] of lk's and rpos[i] of
// rk's row in output row i, in the probe side's order and, for one probe row,
// the build side's ascending. The probe runs in contiguous row chunks at
// degree par with per-chunk output buffers merged in input order, so the
// positions are identical at any degree. A non-nil sp records the effective
// degree, the morsel count and the build/probe wall-time split; nil skips all
// clock reads.
func equiPositions(lk, rk colstore.Key, buildLeft bool, par int, sp *trace.Span) (lpos, rpos []int32) {
	build, probe := rk, lk
	if buildLeft {
		build, probe = lk, rk
	}
	var t0 time.Time
	if sp != nil {
		sp.Par = parallel.Degree(par)
		sp.Morsels = parallel.Chunks(probe.Len(), par)
		t0 = time.Now()
	}
	ht := colstore.BuildHashTable(build, par)
	if sp != nil {
		sp.BuildNS = time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}
	pairs := parallel.Map(probe.Len(), par, func(lo, hi int) []joinPair {
		out := make([]joinPair, 0, hi-lo)
		pr := ht.Prober(probe)
		for j := lo; j < hi; j++ {
			for pos := pr.First(j); pos >= 0; pos = ht.Next(pos) {
				out = append(out, joinPair{build: pos, probe: int32(j)})
			}
		}
		return out
	})
	lpos, rpos = splitPairs(pairs)
	if buildLeft {
		lpos, rpos = rpos, lpos
	}
	if sp != nil {
		sp.ProbeNS = time.Since(t0).Nanoseconds()
	}
	return lpos, rpos
}

// splitPairs lists the probe and the build positions of pairs.
func splitPairs(pairs []joinPair) (probe, build []int32) {
	probe, build = make([]int32, len(pairs)), make([]int32, len(pairs))
	for i, p := range pairs {
		probe[i], build[i] = p.probe, p.build
	}
	return probe, build
}

// gatherPairs materializes a join output: row i is l's row lpos[i] followed
// by r's row rpos[i] — NULLs where rpos[i] is negative — each column gathered
// once (TEXT dictionaries are shared with the inputs).
func gatherPairs(l, r *Relation, lpos, rpos []int32, par int) *Relation {
	f := colstore.Zip(
		colstore.GatherView(l.Vec, allCols(len(l.Cols)), lpos, par),
		colstore.GatherView(r.Vec, allCols(len(r.Cols)), rpos, par))
	return &Relation{Cols: concatCols(l.Cols, r.Cols), Vec: &colstore.View{Frame: f}}
}

// ProjectDistinctPar projects r onto cols and removes duplicate rows. The
// dedup runs on the key columns in place (dictionary-hash text keys), then
// only the survivors' columns are gathered. First occurrence wins, output in
// input order, identical at any degree. Text columns share the source
// dictionary (code copies only), which is what lets the columnar wire encoder
// ship scan-time dictionaries without re-encoding.
func (r *Relation) ProjectDistinctPar(cols []int, par int) *Relation {
	out := &Relation{Cols: make([]ColRef, len(cols))}
	for i, c := range cols {
		out.Cols[i] = r.Cols[c]
	}
	order := colstore.DistinctPositions(r.Key(cols), par)
	out.Vec = &colstore.View{Frame: colstore.GatherView(r.Vec, cols, order, par)}
	return out
}
