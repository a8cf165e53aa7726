package core

import (
	"math/rand"
	"strings"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
	"resultdb/internal/storage"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// bigChainSource builds a 4-relation chain with n rows per relation, large
// enough for the morsel chunking (parallel.Threshold) to actually engage.
func bigChainSource(rng *rand.Rand, n int) memSource {
	src := memSource{}
	cols := []catalog.Column{
		{Name: "id", Type: types.KindInt},
		{Name: "k", Type: types.KindInt},
		{Name: "k2", Type: types.KindInt},
	}
	for _, name := range []string{"b1", "b2", "b3", "b4"} {
		def := catalog.MustTableDef(name, cols)
		tab := storage.NewTable(def)
		for i := 0; i < n; i++ {
			row := types.Row{
				types.NewInt(int64(i)),
				types.NewInt(int64(rng.Intn(n / 4))),
				types.NewInt(int64(rng.Intn(8))),
			}
			if err := tab.Insert(row); err != nil {
				panic(err)
			}
		}
		src[name] = tab
	}
	return src
}

// TestReductionParallelMatchesSerial runs the full RESULTDB-SEMIJOIN
// algorithm on chain (acyclic) and cyclic queries over relations large enough
// to engage the parallel morsel paths, and asserts that every reduced output
// relation is byte-identical — same rows in the same order — between serial
// (Parallelism=1) and parallel (Parallelism=4) execution, with and without
// early stop and α-reduction, whether the inputs carry columnar views or not.
func TestReductionParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := bigChainSource(rng, 4000)
	queries := []string{
		// Acyclic chain.
		`SELECT b1.id, b4.id FROM b1 AS b1, b2 AS b2, b3 AS b3, b4 AS b4
		 WHERE b1.k = b2.k AND b2.k = b3.k AND b3.k = b4.k AND b2.k2 < 6`,
		// Cyclic (triangle) — exercises folding's parallel hash join and the
		// fold decompose's parallel project+distinct.
		`SELECT b1.id, b2.id FROM b1 AS b1, b2 AS b2, b3 AS b3
		 WHERE b1.k2 = b2.k2 AND b2.k2 = b3.k2 AND b3.k2 = b1.k2 AND b1.k < 500`,
	}
	variants := []Options{
		{Root: RootHeuristic, Fold: FoldMaxDegree, EarlyStop: true, AlphaReduce: true},
		{Root: RootHeuristic, Fold: FoldMaxDegree},
	}
	for qi, sql := range queries {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := engine.AnalyzeSPJ(sel, src)
		if err != nil {
			t.Fatal(err)
		}
		ex := &engine.Executor{Src: src}
		for vi, base := range variants {
			run := func(par, form int) map[string]*engine.Relation {
				rels, err := ex.BaseRelations(spec)
				if err != nil {
					t.Fatal(err)
				}
				reduced, _, err := SemiJoinReduce(&engine.Executor{Parallelism: par}, spec, mixForms(rels, form), nil, base)
				if err != nil {
					t.Fatalf("query %d variant %d par %d: %v", qi, vi, par, err)
				}
				return reduced
			}
			// Serial over rebuilt AnyColumn inputs is the baseline; parallel
			// runs over every input form (see mixForms) must reproduce it.
			want := run(1, 2)
			for form := 0; form < 3; form++ {
				got := run(4, form)
				for _, alias := range spec.OutputRels() {
					key := strings.ToLower(alias)
					w, g := want[key].Vec.Rows(), got[key].Vec.Rows()
					if len(g) != len(w) {
						t.Fatalf("query %d variant %d form %d relation %s: %d rows parallel vs %d serial",
							qi, vi, form, alias, len(g), len(w))
					}
					for i := range g {
						if !g[i].Equal(w[i]) {
							t.Fatalf("query %d variant %d form %d relation %s row %d differs:\nparallel: %v\nserial:   %v",
								qi, vi, form, alias, i, g[i], w[i])
						}
					}
				}
			}
		}
	}
}

// TestDecomposeAtAnyDegreeMatchesSerial checks the Decompose operator at several
// degrees on a wide joined relation with heavy duplication per alias.
func TestDecomposeAtAnyDegreeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cols := []engine.ColRef{
		{Rel: "x", Name: "a", Kind: types.KindInt},
		{Rel: "x", Name: "b", Kind: types.KindInt},
		{Rel: "y", Name: "c", Kind: types.KindInt},
		{Rel: "z", Name: "d", Kind: types.KindInt},
	}
	rows := make([]types.Row, 9000)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(rng.Intn(40))),
			types.NewInt(int64(rng.Intn(40))),
			types.NewInt(int64(rng.Intn(25))),
			types.NewInt(int64(rng.Intn(3000))),
		}
	}
	joined := engine.FromRows(cols, rows)
	aliases := []string{"x", "y", "z"}
	want, err := Decompose(serial, joined, aliases)
	if err != nil {
		t.Fatal(err)
	}
	// A join result arrives as a dense gathered frame; a single-relation
	// "join" arrives as its scan's selection. Both must decompose identically.
	every := make([]int32, 0, len(rows))
	for i := 0; i < len(rows); i += 2 {
		every = append(every, int32(i))
	}
	wantHalf, err := Decompose(serial, engine.FromRows(cols, engine.FromRows(cols, rows).Narrow(every).Vec.Rows()), aliases)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*engine.Relation{"dense": joined, "selected": joined.Narrow(every)}
	wants := map[string]map[string]*engine.Relation{"dense": want, "selected": wantHalf}
	for form, in := range inputs {
		for _, par := range []int{1, 2, 4, 7} {
			got, err := Decompose(&engine.Executor{Parallelism: par}, in, aliases)
			if err != nil {
				t.Fatal(err)
			}
			for _, alias := range aliases {
				w, g := wants[form][alias].Vec.Rows(), got[alias].Vec.Rows()
				if len(g) != len(w) {
					t.Fatalf("%s par=%d alias %s: %d rows, want %d", form, par, alias, len(g), len(w))
				}
				for i := range g {
					if !g[i].Equal(w[i]) {
						t.Fatalf("%s par=%d alias %s row %d differs", form, par, alias, i)
					}
				}
			}
		}
	}
	// Unknown alias must surface the same error at any degree.
	if _, err := Decompose(&engine.Executor{Parallelism: 4}, joined, []string{"nope"}); err == nil {
		t.Fatal("expected error for unknown alias")
	}
}

// TestTraceFingerprintIndependentOfKeyForm: the deterministic portion of the
// reduction's trace (ops, labels, phases, cardinalities — CountsFingerprint)
// does not depend on which column representations the operators met their
// inputs in (see mixForms), on acyclic and cyclic (folding) queries, at
// parallelism 1 and 4.
func TestTraceFingerprintIndependentOfKeyForm(t *testing.T) {
	src := bigChainSource(rand.New(rand.NewSource(9)), 1200)
	queries := []string{
		`SELECT b1.id, b4.id FROM b1 AS b1, b2 AS b2, b3 AS b3, b4 AS b4
		 WHERE b1.k = b2.k AND b2.k = b3.k AND b3.k = b4.k AND b2.k2 < 6`,
		`SELECT b1.id, b2.id FROM b1 AS b1, b2 AS b2, b3 AS b3
		 WHERE b1.k2 = b2.k2 AND b2.k2 = b3.k2 AND b3.k2 = b1.k2 AND b1.k < 40`,
	}
	for qi, sql := range queries {
		spec, rels := analyze(t, src, sql)
		var want string
		for form := 0; form < 3; form++ {
			for _, par := range []int{1, 4} {
				tr := trace.New(sql)
				ex := &engine.Executor{Parallelism: par, Tracer: tr}
				if _, _, err := SemiJoinReduce(ex, spec, mixForms(rels, form), nil, Options{EarlyStop: true}); err != nil {
					t.Fatal(err)
				}
				got := tr.Finish().CountsFingerprint()
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("query %d form %d par %d: trace counts differ:\n%s\nwant:\n%s", qi, form, par, got, want)
				}
			}
		}
	}
}
