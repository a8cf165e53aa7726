package sqlparse

import "strings"

// Canonical returns the normalized fingerprint rendering of a SELECT: the
// statement is deep-cloned with every identifier (table names, aliases,
// column references, select-item aliases, function names) folded to lower
// case and redundant alias spellings dropped, then rendered through the
// package's single SQL renderer. Two statements that differ only in
// whitespace, comments, identifier case, literal formatting (0.50 vs 0.5,
// ” vs escaped quotes), or "t AS a" vs "t a" spelling therefore produce the
// same fingerprint, while any semantic difference (including RESULTDB vs
// RESULTDB PRESERVING vs classic form) changes it.
//
// The fold matches the engine's case-insensitive name resolution, so two
// statements with equal fingerprints are guaranteed to read the same tables
// and produce semantically identical results; the semantic result cache
// (internal/cache, wired in internal/db) keys on this string.
func Canonical(sel *Select) string {
	return canonicalSelect(sel).SQL()
}

// Tables lists every base table name a SELECT reads: all FROM and JOIN
// references plus, recursively, the tables of IN (SELECT ...) subqueries
// anywhere in the select list, WHERE, or HAVING. Names are reported in first
// appearance order with original case; callers needing set semantics fold
// case themselves. The result cache uses this to bind an entry to the
// versions of everything the statement read.
func Tables(sel *Select) []string {
	seen := map[string]bool{}
	var out []string
	collectTables(sel, seen, &out)
	return out
}

func collectTables(sel *Select, seen map[string]bool, out *[]string) {
	add := func(name string) {
		key := strings.ToLower(name)
		if !seen[key] {
			seen[key] = true
			*out = append(*out, name)
		}
	}
	for _, fi := range sel.From {
		add(fi.Ref.Table)
		for _, j := range fi.Joins {
			add(j.Ref.Table)
		}
	}
	var walkSub func(e Expr)
	walkSub = func(e Expr) {
		WalkExpr(e, func(x Expr) {
			if sub, ok := x.(*InSubquery); ok {
				collectTables(sub.Query, seen, out)
				// WalkExpr does not descend into subquery bodies; predicates
				// inside the subquery may nest further subqueries and are
				// covered by the recursive collectTables call above.
			}
		})
	}
	for _, item := range sel.Items {
		walkSub(item.Expr)
	}
	walkSub(sel.Where)
	for _, g := range sel.GroupBy {
		walkSub(g)
	}
	walkSub(sel.Having)
	for _, o := range sel.OrderBy {
		walkSub(o.Expr)
	}
}

// canonicalSelect deep-clones sel with all identifiers lower-cased (the
// original AST is never mutated).
func canonicalSelect(sel *Select) *Select {
	out := &Select{
		Distinct:   sel.Distinct,
		ResultDB:   sel.ResultDB,
		Preserving: sel.Preserving,
		Limit:      sel.Limit,
	}
	for _, item := range sel.Items {
		out.Items = append(out.Items, SelectItem{
			Star:  item.Star,
			Table: strings.ToLower(item.Table),
			Expr:  canonicalExpr(item.Expr),
			Alias: strings.ToLower(item.Alias),
		})
	}
	for _, fi := range sel.From {
		cfi := FromItem{Ref: canonicalRef(fi.Ref)}
		for _, j := range fi.Joins {
			cfi.Joins = append(cfi.Joins, Join{
				Type: j.Type,
				Ref:  canonicalRef(j.Ref),
				On:   canonicalExpr(j.On),
			})
		}
		out.From = append(out.From, cfi)
	}
	out.Where = canonicalExpr(sel.Where)
	for _, g := range sel.GroupBy {
		out.GroupBy = append(out.GroupBy, canonicalExpr(g))
	}
	out.Having = canonicalExpr(sel.Having)
	for _, o := range sel.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: canonicalExpr(o.Expr), Desc: o.Desc})
	}
	return out
}

// canonicalRef lowercases a table reference and drops aliases that merely
// restate the table name ("movies AS movies" == "movies").
func canonicalRef(r TableRef) TableRef {
	table := strings.ToLower(r.Table)
	alias := strings.ToLower(r.Alias)
	if alias == table {
		alias = ""
	}
	return TableRef{Table: table, Alias: alias}
}

// canonicalExpr is CloneExpr with identifier folding; unlike CloneExpr it
// also descends into IN-subquery bodies so nested statements canonicalize.
func canonicalExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		return &ColumnRef{Table: strings.ToLower(x.Table), Column: strings.ToLower(x.Column)}
	case *Literal:
		c := *x
		return &c
	case *Binary:
		return &Binary{Op: x.Op, L: canonicalExpr(x.L), R: canonicalExpr(x.R)}
	case *Unary:
		return &Unary{Op: x.Op, E: canonicalExpr(x.E)}
	case *Between:
		return &Between{E: canonicalExpr(x.E), Lo: canonicalExpr(x.Lo), Hi: canonicalExpr(x.Hi), Not: x.Not}
	case *InList:
		list := make([]Expr, len(x.List))
		for i, v := range x.List {
			list[i] = canonicalExpr(v)
		}
		return &InList{E: canonicalExpr(x.E), List: list, Not: x.Not}
	case *InSubquery:
		return &InSubquery{E: canonicalExpr(x.E), Query: canonicalSelect(x.Query), Not: x.Not}
	case *Like:
		return &Like{E: canonicalExpr(x.E), Pattern: x.Pattern, Not: x.Not}
	case *IsNull:
		return &IsNull{E: canonicalExpr(x.E), Not: x.Not}
	case *FuncCall:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = canonicalExpr(a)
		}
		return &FuncCall{Name: strings.ToLower(x.Name), Star: x.Star, Args: args}
	default:
		return e
	}
}
