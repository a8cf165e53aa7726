package engine

// Columnar execution: the engine side of internal/colstore.
//
// Every operator runs on colstore keys, and which key form it uses is read
// from the data: a base-table scan attaches the table's columnar image (a
// colstore.View aligned with the materialized rows) to the Relation it
// produces, operators address a relation that carries a view through
// colstore.ViewKey and one that does not (join outputs, decoded result sets)
// through colstore.RowsKey. The two forms compose freely — a columnar base
// table semi-joins against a folded (row-major) intermediate without
// conversion, because both sides hash with the same inlined FNV-1a
// (types.Value.HashFNV == colstore.Column.HashFNV).
//
// Results are the same rows in the same order, with the same trace
// cardinalities, at any parallelism degree.
//
// Scan filters are compiled into colstore kernels under a prefix rule: the
// longest prefix of the pushed-down conjuncts that maps onto typed kernels
// runs columnar (dictionary-mask text predicates, typed numeric comparisons,
// IS NULL tests); the remaining conjuncts are bound and evaluated
// row-at-a-time over the survivors, in order. All kernels are error-free, and
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
	"resultdb/internal/storage"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// KeyFor returns the colstore key addressing rel's key columns: columnar via
// the attached view when present, row-major otherwise. Both forms hash
// identically, so mixed-side joins and Bloom filters are safe.
func KeyFor(rel *Relation, cols []int) colstore.Key {
	if rel.Vec != nil {
		return colstore.ViewKey(rel.Vec, cols)
	}
	return colstore.RowsKey(rel.Rows, cols)
}

// gatherRows materializes the rows a view selects, as pointer copies from the
// backing row slice (late materialization: no value is touched).
func gatherRows(src []types.Row, v *colstore.View) []types.Row {
	if v.Sel == nil {
		return src
	}
	out := make([]types.Row, len(v.Sel))
	for i, j := range v.Sel {
		out[i] = src[j]
	}
	return out
}

// baseRelation scans one base table into an alias-qualified relation,
// applying the pushed-down filter conjuncts during the scan: compiled kernels
// filter the table's columnar image, the bound expression evaluates whatever
// conjuncts have no kernel over the survivors, and the surviving rows are
// gathered. The relation carries the view the filter produced.
func (e *Executor) baseRelation(r RelRef, filters []sqlparse.Expr) (*Relation, error) {
	t, err := e.Src.Table(r.Table)
	if err != nil {
		return nil, err
	}
	f := t.Columns()
	rel := &Relation{Cols: make([]ColRef, len(t.Def.Columns))}
	for i, c := range t.Def.Columns {
		rel.Cols[i] = ColRef{Rel: r.Alias, Name: c.Name, Kind: c.Type}
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
		sp.RowsIn = len(t.Rows)
		sp.Par = parallel.Degree(e.Parallelism)
		sp.Morsels = parallel.Chunks(len(t.Rows), e.Parallelism)
		sp.Dict = f.DictEntries()
		t0 = time.Now()
	}
	kernels, residual := compileScanKernels(f, rel, filters)
	rel.Vec, err = e.filterView(t, rel, kernels, residual)
	if err != nil {
		return nil, err
	}
	rel.Rows = gatherRows(t.Rows, rel.Vec)
	if sp != nil {
		sp.RowsOut = len(rel.Rows)
		sp.DurNS = time.Since(t0).Nanoseconds()
		e.Tracer.AddRowsScanned(len(rel.Rows))
		e.Tracer.AddRowsDropped(len(t.Rows) - len(rel.Rows))
	}
	return rel, nil
}

// filterView selects the rows of t that pass every kernel and then every
// residual conjunct. The residual conjuncts are bound against rel's schema
// one by one and evaluated row-at-a-time over the kernels' survivors, in
// order, stopping at the first that is not TRUE — the same drop-at-first-
// failure rule the kernel prefix follows, so which conjuncts happen to have a
// kernel never decides whether a later conjunct's runtime error surfaces.
func (e *Executor) filterView(t *storage.Table, rel *Relation, kernels []colstore.Kernel, residual []sqlparse.Expr) (*colstore.View, error) {
	f := t.Columns()
	view := &colstore.View{Frame: f}
	if len(kernels) > 0 {
		view.Sel = colstore.RunKernels(f.Rows(), kernels, e.Parallelism)
	}
	if len(residual) == 0 {
		return view, nil
	}
	b := &binder{rel: rel, sub: e.subRunner()}
	checks := make([]boundExpr, len(residual))
	for i, cond := range residual {
		var err error
		if checks[i], err = b.bind(cond); err != nil {
			return nil, err
		}
	}
	keep, err := parallel.MapErr(view.Len(), e.Parallelism, func(lo, hi int) ([]int32, error) {
		out := make([]int32, 0, hi-lo)
	rows:
		for j := lo; j < hi; j++ {
			row := t.Rows[view.Index(j)]
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
	if err != nil {
		return nil, err
	}
	return view.Narrow(keep), nil
}

// compileScanKernels maps the longest kernelizable prefix of the pushed-down
// conjuncts onto colstore kernels; the rest is returned as the row-wise
// residual, in original order (see the prefix rule in this file's header).
func compileScanKernels(f *colstore.Frame, rel *Relation, filters []sqlparse.Expr) ([]colstore.Kernel, []sqlparse.Expr) {
	var kernels []colstore.Kernel
	for i, cond := range filters {
		k, ok := compileKernel(f, rel, cond)
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

// colOf resolves a column reference against rel, returning its position.
func colOf(e sqlparse.Expr, rel *Relation) (int, bool) {
	cr, ok := e.(*sqlparse.ColumnRef)
	if !ok {
		return 0, false
	}
	idx, err := rel.ColIndex(cr.Table, cr.Column)
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
func compileKernel(f *colstore.Frame, rel *Relation, e sqlparse.Expr) (colstore.Kernel, bool) {
	switch x := e.(type) {
	case *sqlparse.Binary:
		op, ok := cmpOpOf(x.Op)
		if !ok {
			return nil, false
		}
		idx, lit := 0, types.Value{}
		if ci, cok := colOf(x.L, rel); cok {
			lv, lok := litOf(x.R)
			if !lok {
				return nil, false
			}
			idx, lit = ci, lv
		} else if ci, cok := colOf(x.R, rel); cok {
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
		idx, ok := colOf(x.E, rel)
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
		idx, ok := colOf(x.E, rel)
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
		idx, ok := colOf(x.E, rel)
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
		idx, ok := colOf(x.E, rel)
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
// at degree par (0 = auto, 1 = serial) emitting a selection vector merged in
// input order, and only the surviving rows are gathered — when every row
// survives, l itself is returned. Either side may be columnar or row-major;
// the result carries l's view narrowed to the survivors when l was columnar.
// A non-nil sp records the build/probe wall-time split, degree, and morsel
// count; nil skips all clock reads.
func SemiJoin(l *Relation, lCols []int, r *Relation, rCols []int, par int, sp *trace.Span) *Relation {
	var t0 time.Time
	if sp != nil {
		sp.Par = parallel.Degree(par)
		sp.Morsels = parallel.Chunks(len(l.Rows), par)
		t0 = time.Now()
	}
	keys := colstore.BuildKeySet(KeyFor(r, rCols))
	if sp != nil {
		sp.BuildNS = time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}
	probe := KeyFor(l, lCols)
	kept := parallel.Map(len(l.Rows), par, func(lo, hi int) []int32 {
		return keys.Select(probe, lo, hi, nil)
	})
	out := l
	if len(kept) < len(l.Rows) {
		out = l.Narrow(kept)
	}
	if sp != nil {
		sp.ProbeNS = time.Since(t0).Nanoseconds()
	}
	return out
}

// HashJoin is the inner equi-join of l and r on lCols (positions in l) and
// rCols (positions in r); with empty column lists it is the Cartesian
// product. Output schema is l's columns followed by r's, and the output is
// row-major (Vec nil): its schema matches neither input's frame.
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
	out := &Relation{Cols: concatCols(l.Cols, r.Cols)}
	build, probe := r, l
	buildCols, probeCols := rCols, lCols
	probeIsLeft := true
	if len(r.Rows) > len(l.Rows) {
		build, probe = l, r
		buildCols, probeCols = lCols, rCols
		probeIsLeft = false
	}
	var t0 time.Time
	if sp != nil {
		sp.Par = parallel.Degree(par)
		sp.Morsels = parallel.Chunks(len(probe.Rows), par)
		t0 = time.Now()
	}
	ht := colstore.BuildHashTable(KeyFor(build, buildCols), par)
	if sp != nil {
		sp.BuildNS = time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}
	pk := KeyFor(probe, probeCols)
	out.Rows = parallel.Map(len(probe.Rows), par, func(lo, hi int) []types.Row {
		rows := make([]types.Row, 0, hi-lo)
		var pr types.Row
		emit := func(pos int32) {
			if probeIsLeft {
				rows = append(rows, concatRows(pr, build.Rows[pos]))
			} else {
				rows = append(rows, concatRows(build.Rows[pos], pr))
			}
		}
		prober := ht.Prober(pk)
		for j := lo; j < hi; j++ {
			pr = probe.Rows[j]
			prober.Each(j, emit)
		}
		return rows
	})
	if sp != nil {
		sp.ProbeNS = time.Since(t0).Nanoseconds()
	}
	return out
}

// Columnarize returns rel with a freshly built columnar image attached (a
// shallow copy; rows are shared). Columns whose values do not match their
// declared kind degrade to exact-value fallback vectors, so this is safe on
// any relation, including post-join intermediates. Used before repeated
// columnar consumption (Decompose's per-alias project+dedup).
func Columnarize(rel *Relation, par int) *Relation {
	kinds := make([]types.Kind, len(rel.Cols))
	for i, c := range rel.Cols {
		kinds[i] = c.Kind
	}
	f := colstore.NewFrameDegree(kinds, rel.Rows, par)
	return &Relation{Cols: rel.Cols, Rows: rel.Rows, Vec: &colstore.View{Frame: f}}
}

// ProjectDistinctPar projects r onto cols and removes duplicate rows. The
// dedup runs on the key columns in place (dictionary-hash keys when r carries
// a columnar view): survivors are found first, then only they are projected.
// First occurrence wins, output in input order, identical at any degree. When
// r is columnar the output is too.
func (r *Relation) ProjectDistinctPar(cols []int, par int) *Relation {
	out := &Relation{Cols: make([]ColRef, len(cols))}
	for i, c := range cols {
		out.Cols[i] = r.Cols[c]
	}
	order := colstore.DistinctPositions(KeyFor(r, cols), par)
	out.Rows = make([]types.Row, len(order))
	parallel.For(len(order), par, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Rows[i] = r.Rows[order[i]].Project(cols)
		}
	})
	if r.Vec != nil {
		// Gather the surviving positions into a frame aligned with out.Rows.
		// Text columns share the source dictionary (code copies only), which
		// is what lets the columnar wire encoder ship scan-time dictionaries
		// without re-encoding.
		kinds := make([]types.Kind, len(out.Cols))
		for i, c := range out.Cols {
			kinds[i] = c.Kind
		}
		out.Vec = &colstore.View{Frame: colstore.GatherView(r.Vec, cols, kinds, order, par)}
	}
	return out
}
