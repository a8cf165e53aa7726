package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/engine"
	"resultdb/internal/parallel"
	"resultdb/internal/reference"
	"resultdb/internal/sqlparse"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// randomDB builds a random database: nTables tables, each with a unique id
// column plus 2 small-domain join/filter columns, so random equi-joins
// actually match.
func randomDB(rng *rand.Rand, nTables int) memSource {
	src := memSource{}
	for i := 0; i < nTables; i++ {
		name := fmt.Sprintf("t%d", i)
		def := catalog.MustTableDef(name, []catalog.Column{
			{Name: "id", Type: types.KindInt},
			{Name: "j1", Type: types.KindInt},
			{Name: "j2", Type: types.KindInt},
		})
		def.PrimaryKey = []string{"id"}
		tab := storage.NewTable(def)
		rows := 3 + rng.Intn(25)
		for r := 0; r < rows; r++ {
			row := types.Row{
				types.NewInt(int64(r)),
				types.NewInt(int64(rng.Intn(5))),
				types.NewInt(int64(rng.Intn(4))),
			}
			if err := tab.Insert(row); err != nil {
				panic(err)
			}
		}
		src[name] = tab
	}
	return src
}

// randomQuery builds a random connected SPJ query over 2-4 relation
// instances (table reuse allowed → self-joins), with optional cycle edges
// and random filters, projecting 1-2 columns from a random subset of
// relations. Any column may join, and about one edge in four carries a
// second predicate. Each extra edge joins a pair the spanning tree left
// unlinked, so it closes a cycle; half of them join one column on both
// sides, which closes same-class (α-acyclic) triangles.
func randomQuery(rng *rand.Rand, nTables int) string {
	n := 2 + rng.Intn(3)
	aliases := make([]string, n)
	var from []string
	for i := range aliases {
		aliases[i] = fmt.Sprintf("x%d", i)
		from = append(from, fmt.Sprintf("t%d AS %s", rng.Intn(nTables), aliases[i]))
	}
	joinCols := []string{"j1", "j2", "id"}
	var preds []string
	linked := map[[2]int]bool{}
	join := func(a, b int, ca, cb string) {
		linked[[2]int{min(a, b), max(a, b)}] = true
		preds = append(preds, fmt.Sprintf("%s.%s = %s.%s", aliases[a], ca, aliases[b], cb))
		if rng.Intn(4) == 0 {
			preds = append(preds, fmt.Sprintf("%s.%s = %s.%s",
				aliases[a], joinCols[rng.Intn(3)], aliases[b], joinCols[rng.Intn(3)]))
		}
	}
	// Spanning tree: connect each alias i>0 to a random earlier alias.
	for i := 1; i < n; i++ {
		join(i, rng.Intn(i), joinCols[rng.Intn(3)], joinCols[rng.Intn(3)])
	}
	// Optional extra edges (cycles).
	var open [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !linked[[2]int{a, b}] {
				open = append(open, [2]int{a, b})
			}
		}
	}
	rng.Shuffle(len(open), func(i, j int) { open[i], open[j] = open[j], open[i] })
	for _, p := range open[:min(len(open), rng.Intn(3))] {
		ca, cb := joinCols[rng.Intn(3)], joinCols[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			cb = ca
		}
		join(p[0], p[1], ca, cb)
	}
	// Random filters.
	for f := 0; f < rng.Intn(3); f++ {
		a := aliases[rng.Intn(n)]
		switch rng.Intn(3) {
		case 0:
			preds = append(preds, fmt.Sprintf("%s.j1 < %d", a, 1+rng.Intn(5)))
		case 1:
			preds = append(preds, fmt.Sprintf("%s.id > %d", a, rng.Intn(10)))
		default:
			preds = append(preds, fmt.Sprintf("%s.j2 = %d", a, rng.Intn(4)))
		}
	}
	// Projection: 1..n relations, 1-2 columns each.
	nProj := 1 + rng.Intn(n)
	perm := rng.Perm(n)
	var items []string
	for _, idx := range perm[:nProj] {
		items = append(items, aliases[idx]+".id")
		if rng.Intn(2) == 0 {
			items = append(items, aliases[idx]+".j1")
		}
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		strings.Join(items, ", "), strings.Join(from, ", "), strings.Join(preds, " AND "))
}

// TestTheorem44RandomQueries is the paper's correctness theorem as a
// property test: on random databases and random (possibly cyclic, possibly
// self-joining) SPJ queries, the native RESULTDB-SEMIJOIN algorithm produces
// exactly Decompose(single-table result) for every output relation, under
// every strategy combination. Both ways a cyclic query reduces must run
// often: over a join tree (no folds) and by folding.
func TestTheorem44RandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	runs := []struct {
		opts Options
		ex   *engine.Executor
	}{
		{Options{Root: RootHeuristic, Fold: FoldMaxDegree, EarlyStop: true, AlphaReduce: true}, bare},
		{Options{Root: RootHeuristic, Fold: FoldMaxDegree, EarlyStop: false}, bare},
		{Options{Root: RootFirst, Fold: FoldFirst, EarlyStop: true}, bare},
		{Options{Root: RootMaxDegree, Fold: FoldMinCard, EarlyStop: true}, bare},
		// Cyclic queries fold without α-reduction.
		{Options{Root: RootHeuristic, Fold: FoldMaxDegree, EarlyStop: true}, bare},
		// Parallel execution must be indistinguishable from serial.
		{Options{Root: RootHeuristic, Fold: FoldMaxDegree, EarlyStop: true, AlphaReduce: true}, &engine.Executor{Run: parallel.NewRun(4)}},
		{Options{Root: RootHeuristic, Fold: FoldMaxDegree, EarlyStop: true}, &engine.Executor{Run: parallel.NewRun(4)}},
	}
	const trials = 300
	checked, treed, folded := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		nTables := 2 + rng.Intn(3)
		src := randomDB(rng, nTables)
		sql := randomQuery(rng, nTables)

		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, sql, err)
		}
		spec, err := engine.AnalyzeSPJ(sel, src)
		if err != nil {
			t.Fatalf("trial %d: analyze %q: %v", trial, sql, err)
		}
		ex := &engine.Executor{Src: src}
		joined, err := ex.RunSPJ(spec)
		if err != nil {
			t.Fatalf("trial %d: ST %q: %v", trial, sql, err)
		}
		oracle, err := Decompose(serial, joined, spec.OutputRels())
		if err != nil {
			t.Fatalf("trial %d: decompose: %v", trial, err)
		}
		// The engine's own Decompose is what Theorem 4.4 names; the naive
		// reference confirms it before it is used as the oracle.
		refSets, err := reference.Subdatabase(src, sel, false)
		if err != nil {
			t.Fatalf("trial %d: reference %q: %v", trial, sql, err)
		}
		for _, set := range refSets {
			full := oracle[strings.ToLower(set.Name)]
			cols := make([]int, len(set.Columns))
			for i, c := range set.Columns {
				if cols[i], err = full.ColIndex(set.Name, c); err != nil {
					t.Fatal(err)
				}
			}
			dec := full.Project(cols).Distinct(parallel.NewRun(0))
			if ref := engine.FromRows(dec.Cols, set.Rows); !sameRelation(ref, dec) {
				t.Fatalf("trial %d: %q relation %s: Decompose disagrees with the reference:\ndecompose: %v\nreference: %v",
					trial, sql, set.Name, renderSorted(dec), renderSorted(ref))
			}
		}
		for oi, run := range runs {
			rels, err := ex.BaseRelations(spec)
			if err != nil {
				t.Fatal(err)
			}
			// Rotate through the input forms (see mixForms).
			reduced, st, err := SemiJoinReduce(run.ex, spec, mixForms(rels, (trial+oi)%3), nil, run.opts)
			if err != nil {
				t.Fatalf("trial %d opts %+v par %d: %q: %v", trial, run.opts, run.ex.Run.Degree(), sql, err)
			}
			if oi == 0 && st.Cyclic {
				if st.Folds == 0 {
					treed++
				} else {
					folded++
				}
			}
			for _, alias := range spec.OutputRels() {
				key := strings.ToLower(alias)
				got := reduced[key].Distinct(parallel.NewRun(0))
				want := oracle[key]
				if !sameRelation(got, want) {
					t.Fatalf("trial %d opts %+v par %d: %q relation %s:\nreduced:   %v\ndecompose: %v",
						trial, run.opts, run.ex.Run.Degree(), sql, alias, renderSorted(got), renderSorted(want))
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no trials executed")
	}
	if treed*10 < trials || folded*20 < trials {
		t.Fatalf("of %d trials %d reduced cyclic over a join tree (want >= 10%%) and %d folded (want >= 5%%)", trials, treed, folded)
	}
}

// randomGraphs runs fn on the join graphs of the random queries of
// TestTheorem44RandomQueries' generator.
func randomGraphs(t *testing.T, seed int64, trials int, fn func(sql string, g *Graph)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		nTables := 2 + rng.Intn(3)
		src := randomDB(rng, nTables)
		sql := randomQuery(rng, nTables)
		spec, rels := analyze(t, src, sql)
		g, err := BuildGraph(spec, rels, nil)
		if err != nil {
			t.Fatal(err)
		}
		fn(sql, g)
	}
}

// TestJGAcyclicImpliesAlphaAcyclic: JG-acyclicity is the stronger notion
// (the paper's Definition 4.2 choice), so every JG-acyclic query has a GYO
// join tree. The converse does not hold; TestDropImpliedEdgesSameClassTriangle
// shows the gap.
func TestJGAcyclicImpliesAlphaAcyclic(t *testing.T) {
	acyclic := 0
	randomGraphs(t, 123, 400, func(sql string, g *Graph) {
		if g.IsCyclic() {
			return
		}
		acyclic++
		if alphaJoinTree(g) == nil {
			t.Fatalf("JG-acyclic query has no join tree: %s", sql)
		}
	})
	if acyclic < 100 {
		t.Fatalf("too few acyclic samples (%d); generator broken?", acyclic)
	}
}

// TestGYOJoinTreeCoversAllRelations: a join tree spans the query, and every
// relation but the root hangs off exactly one parent.
func TestGYOJoinTreeCoversAllRelations(t *testing.T) {
	cyclicTrees := 0
	randomGraphs(t, 321, 300, func(sql string, g *Graph) {
		tree := alphaJoinTree(g)
		if tree == nil {
			return
		}
		if g.IsCyclic() {
			cyclicTrees++
		}
		children := map[*Node]int{}
		for _, e := range tree {
			children[e.X]++
			if len(e.Preds) == 0 {
				t.Fatalf("%s: tree edge %s - %s compares nothing", sql, e.X.Name(), e.Y.Name())
			}
		}
		for _, n := range children {
			if n != 1 {
				t.Fatalf("%s: a relation hangs off %d parents", sql, n)
			}
		}
		g.Edges = tree
		if len(children) != len(g.Nodes)-1 || g.IsCyclic() || g.Components() != 1 {
			t.Fatalf("%s: %d tree edges over %d relations do not span the query", sql, len(tree), len(g.Nodes))
		}
	})
	if cyclicTrees < 20 {
		t.Fatalf("too few JG-cyclic queries with a join tree (%d); generator broken?", cyclicTrees)
	}
}

// TestPostJoinReconstructionRandom property-checks Definition 2.3: joining
// the relationship-preserving subdatabase reproduces the single-table
// result, on random queries.
func TestPostJoinReconstructionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		nTables := 2 + rng.Intn(3)
		src := randomDB(rng, nTables)
		sql := randomQuery(rng, nTables)
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := engine.AnalyzeSPJ(sel, src)
		if err != nil {
			t.Fatal(err)
		}
		ex := &engine.Executor{Src: src}
		orig, err := ex.Select(sel)
		if err != nil {
			t.Fatal(err)
		}

		// Build the RDBRP subdatabase: every relation with A_i* non-empty.
		var outputs []string
		for _, r := range spec.Rels {
			if len(spec.ProjectionOf(r.Alias)) > 0 || len(spec.JoinAttrsOf(r.Alias)) > 0 {
				outputs = append(outputs, r.Alias)
			}
		}
		rels, err := ex.BaseRelations(spec)
		if err != nil {
			t.Fatal(err)
		}
		reduced, _, err := SemiJoinReduce(bare, spec, rels, outputs, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %q: %v", trial, sql, err)
		}
		rp := make(map[string]*engine.Relation, len(outputs))
		for _, alias := range outputs {
			attrs := RelationshipPreservingAttrs(spec, alias)
			cols := make([]int, len(attrs))
			for i, a := range attrs {
				idx, err := reduced[strings.ToLower(alias)].ColIndex(alias, a)
				if err != nil {
					t.Fatal(err)
				}
				cols[i] = idx
			}
			rp[strings.ToLower(alias)] = reduced[strings.ToLower(alias)].Project(cols).Distinct(parallel.NewRun(0))
		}
		post, err := PostJoin(spec.JoinPreds, rp, spec.Projection)
		if err != nil {
			t.Fatalf("trial %d: post-join %q: %v", trial, sql, err)
		}
		// Bag semantics caveat: deduplicating the reduced relations can
		// change result multiplicities only if a base relation held exact
		// duplicate A_i* tuples — impossible here because id is unique and
		// always included via the projection or join attrs? Not quite: a
		// relation may participate via j1/j2 only. Compare as sets.
		if !sameRelationSet(post, orig) {
			t.Fatalf("trial %d: %q:\npost: %v\norig: %v",
				trial, sql, renderSorted(post.Distinct(parallel.NewRun(0))), renderSorted(orig.Distinct(parallel.NewRun(0))))
		}
	}
}

func sameRelationSet(a, b *engine.Relation) bool {
	return sameRelation(a.Distinct(parallel.NewRun(0)), b.Distinct(parallel.NewRun(0)))
}

// TestBigIntegerKeysMatchReference pins what join keys beyond 2^53 do today:
// INTEGER keys compare and hash by float64 value, in the naive reference
// (types.Equal) and in the engine's typed key compare alike, so 2^53 and
// 2^53+1 are one key. Changing that is a semantics change for both at once,
// not a detail of the hash kernel.
func TestBigIntegerKeysMatchReference(t *testing.T) {
	const big = int64(1) << 53
	src := memSource{}
	for name, keys := range map[string][]int64{"a": {big, big + 1, 7, big + 2}, "b": {big + 1, 8, big}} {
		def := catalog.MustTableDef(name, []catalog.Column{{Name: "id", Type: types.KindInt}, {Name: "k", Type: types.KindInt}})
		tab := storage.NewTable(def)
		for i, k := range keys {
			if err := tab.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(k)}); err != nil {
				t.Fatal(err)
			}
		}
		src[name] = tab
	}
	sel, err := sqlparse.ParseSelect("SELECT a.id, b.id FROM a, b WHERE a.k = b.k")
	if err != nil {
		t.Fatal(err)
	}
	refSets, err := reference.Subdatabase(src, sel, false)
	if err != nil {
		t.Fatal(err)
	}
	// a: ids 0 and 1 (2^53, 2^53+1) match both big rows of b; 2^53+2 is a
	// different float64 and matches nothing.
	for _, set := range refSets {
		if len(set.Rows) != 2 {
			t.Fatalf("reference changed: relation %s has %d rows, want 2: %v", set.Name, len(set.Rows), set.Rows)
		}
	}
	spec, err := engine.AnalyzeSPJ(sel, src)
	if err != nil {
		t.Fatal(err)
	}
	for form := 0; form < 3; form++ {
		rels, err := (&engine.Executor{Src: src}).BaseRelations(spec)
		if err != nil {
			t.Fatal(err)
		}
		reduced, _, err := SemiJoinReduce(bare, spec, mixForms(rels, form), nil, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range refSets {
			full := reduced[strings.ToLower(set.Name)]
			idCol, err := full.ColIndex(set.Name, "id")
			if err != nil {
				t.Fatal(err)
			}
			got := full.Project([]int{idCol}).Distinct(parallel.NewRun(0))
			if ref := engine.FromRows(got.Cols, set.Rows); !sameRelation(ref, got) {
				t.Fatalf("form %d relation %s: engine %v, reference %v", form, set.Name, renderSorted(got), renderSorted(ref))
			}
		}
	}
}
