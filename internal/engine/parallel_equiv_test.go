package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

// The morsel-parallel operators promise bit-identical results at any degree
// of parallelism (ordered chunk merge), whichever shape their inputs come in.
// These tests verify exact row-order equality between serial execution
// (par=1) over dense inputs and several parallel degrees over every pairing
// of dense and selected inputs (see keyForms), on inputs large enough to
// actually engage chunking (> 2*parallel.Threshold).

// bigRelation builds a relation with n rows: (id, key, payload), where key is
// drawn from a domain small enough to generate plenty of join matches and
// duplicates.
func bigRelation(rng *rand.Rand, alias string, n, keyDomain int) *Relation {
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(keyDomain))),
			types.NewText(fmt.Sprintf("p%d", rng.Intn(keyDomain/2+1))),
		}
	}
	return FromRows([]ColRef{
		{Rel: alias, Name: "id", Kind: types.KindInt},
		{Rel: alias, Name: "key", Kind: types.KindInt},
		{Rel: alias, Name: "payload", Kind: types.KindText},
	}, rows)
}

// identicalRows asserts exact equality: same schema width, same row count,
// same values in the same order.
func identicalRows(t *testing.T, what string, got, want *Relation) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: schema width %d != %d", what, len(got.Cols), len(want.Cols))
	}
	g, w := got.Vec.Rows(), want.Vec.Rows()
	if len(g) != len(w) || got.Len() != len(w) {
		t.Fatalf("%s: row count %d (Len %d) != %d", what, len(g), got.Len(), len(w))
	}
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: row %d differs:\n got %v\nwant %v", what, i, g[i], w[i])
		}
	}
}

var sweepDegrees = []int{2, 4, 7}

func TestHashJoinParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := bigRelation(rng, "l", 5000, 97)
	r := bigRelation(rng, "r", 3000, 97)
	want := HashJoin(l, r, []int{1}, []int{1}, parallel.NewRun(1), nil)
	if want.Len() == 0 {
		t.Fatal("test setup: join produced no rows")
	}
	for lf, lrel := range keyForms(l) {
		for rf, rrel := range keyForms(r) {
			for _, par := range append([]int{1}, sweepDegrees...) {
				got := HashJoin(lrel, rrel, []int{1}, []int{1}, parallel.NewRun(par), nil)
				identicalRows(t, fmt.Sprintf("HashJoin l as %s, r as %s, par=%d", lf, rf, par), got, want)
			}
		}
	}
}

func TestHashJoinParallelCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l := bigRelation(rng, "l", 1200, 7)
	r := bigRelation(rng, "r", 3, 7)
	want := HashJoin(l, r, nil, nil, parallel.NewRun(1), nil)
	if want.Len() != l.Len()*r.Len() {
		t.Fatalf("cross product has %d rows, want %d", want.Len(), l.Len()*r.Len())
	}
	var scan []types.Row
	for _, lr := range l.Vec.Rows() {
		for _, rr := range r.Vec.Rows() {
			scan = append(scan, append(append(types.Row(nil), lr...), rr...))
		}
	}
	identicalRows(t, "cross par=1 vs nested loop", want, FromRows(want.Cols, scan))
	for _, par := range sweepDegrees {
		got := HashJoin(l, r, nil, nil, parallel.NewRun(par), nil)
		identicalRows(t, fmt.Sprintf("cross par=%d", par), got, want)
	}
}

func TestSemiJoinParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	l := bigRelation(rng, "l", 6000, 211)
	r := bigRelation(rng, "r", 500, 211)
	want := SemiJoin(l, []int{1}, r, []int{1}, parallel.NewRun(1), nil)
	if want.Len() == 0 || want.Len() == l.Len() {
		t.Fatalf("test setup: semi-join kept %d of %d rows (want a strict subset)",
			want.Len(), l.Len())
	}
	for lf, lrel := range keyForms(l) {
		for rf, rrel := range keyForms(r) {
			for _, par := range append([]int{1}, sweepDegrees...) {
				got := SemiJoin(lrel, []int{1}, rrel, []int{1}, parallel.NewRun(par), nil)
				identicalRows(t, fmt.Sprintf("SemiJoin l as %s, r as %s, par=%d", lf, rf, par), got, want)
			}
		}
	}
}

func TestDistinctParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	// keyDomain small → many exact duplicate (key, payload) pairs after
	// projecting id away.
	full := bigRelation(rng, "d", 8000, 23)
	rel := full.Project([]int{1, 2})
	// The expected rows come from a plain first-occurrence-wins loop.
	var first []types.Row
	seen := types.NewRowSet()
	for _, row := range rel.Vec.Rows() {
		if seen.Add(row) {
			first = append(first, row)
		}
	}
	if len(first) == rel.Len() {
		t.Fatal("test setup: no duplicates to remove")
	}
	want := FromRows(rel.Cols, first)
	for form, frel := range keyForms(rel) {
		for _, par := range append([]int{1}, sweepDegrees...) {
			identicalRows(t, fmt.Sprintf("Distinct on %s, par=%d", form, par), frel.Distinct(parallel.NewRun(par)), want)
		}
	}
	// Project+dedup in one step finds the same rows from the unprojected
	// relation.
	for form, frel := range keyForms(full) {
		for _, par := range append([]int{1}, sweepDegrees...) {
			got := frel.ProjectDistinctPar([]int{1, 2}, parallel.NewRun(par))
			identicalRows(t, fmt.Sprintf("ProjectDistinctPar on %s, par=%d", form, par), got, want)
		}
	}
}

// TestProjectIsColumnSubset: projection keeps the selection and shares the
// frame's column vectors.
func TestProjectIsColumnSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for form, rel := range keyForms(bigRelation(rng, "p", 4000, 50)) {
		var want []types.Row
		for _, row := range rel.Vec.Rows() {
			want = append(want, row.Project([]int{2, 0}))
		}
		got := rel.Project([]int{2, 0})
		identicalRows(t, "Project on "+form, got, FromRows(got.Cols, want))
		if got.Vec.Frame.Col(1) != rel.Vec.Frame.Col(0) {
			t.Errorf("%s: Project copied a column vector", form)
		}
	}
}

func TestFilterParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rel := bigRelation(rng, "f", 7000, 113)
	cond := parseConjuncts(t, "f", []string{"f.id + 0 < 2000"})[0]
	var keep []types.Row
	for _, row := range rel.Vec.Rows() {
		if row[0].Int() < 2000 {
			keep = append(keep, row)
		}
	}
	if len(keep) == 0 || len(keep) == rel.Len() {
		t.Fatalf("test setup: filter kept %d of %d rows", len(keep), rel.Len())
	}
	want := FromRows(rel.Cols, keep)
	for form, frel := range keyForms(rel) {
		for _, par := range append([]int{1}, sweepDegrees...) {
			got, err := (&Executor{Run: parallel.NewRun(par)}).filter(frel, cond)
			if err != nil {
				t.Fatal(err)
			}
			identicalRows(t, fmt.Sprintf("filter on %s, par=%d", form, par), got, want)
			if got.Vec.Frame != frel.Vec.Frame {
				t.Errorf("%s par=%d: filter output is not a selection over its input's frame", form, par)
			}
		}
	}
}

func TestFilterParallelErrorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	rel := bigRelation(rng, "e", 6000, 50)
	// Division by zero on the one row whose id is 4999, deep in the input:
	// the error surfaces at every degree.
	cond := parseConjuncts(t, "e", []string{"100 / (e.id - 4999) < 1000"})[0]
	_, wantErr := (&Executor{Run: parallel.NewRun(1)}).filter(rel, cond)
	if wantErr == nil {
		t.Fatal("test setup: serial filter did not error")
	}
	for _, par := range sweepDegrees {
		_, err := (&Executor{Run: parallel.NewRun(par)}).filter(rel, cond)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("par=%d: error %v, want %v", par, err, wantErr)
		}
	}
}

func TestJoinAllParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	rels := map[string]*Relation{
		"a": bigRelation(rng, "a", 2500, 601),
		"b": bigRelation(rng, "b", 2000, 601),
		"c": bigRelation(rng, "c", 1500, 601),
	}
	preds := []JoinPred{
		{LeftRel: "a", LeftCol: "key", RightRel: "b", RightCol: "key"},
		{LeftRel: "b", LeftCol: "key", RightRel: "c", RightCol: "key"},
	}
	clone := func() map[string]*Relation {
		m := make(map[string]*Relation, len(rels))
		for k, v := range rels {
			m[k] = v
		}
		return m
	}
	spec := &SPJSpec{JoinPreds: preds}
	want, err := (&Executor{Run: parallel.NewRun(1)}).JoinAll(spec, clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("test setup: join produced no rows")
	}
	for _, par := range sweepDegrees {
		got, err := (&Executor{Run: parallel.NewRun(par)}).JoinAll(spec, clone(), nil)
		if err != nil {
			t.Fatal(err)
		}
		identicalRows(t, fmt.Sprintf("JoinAll par=%d", par), got, want)
	}
}

// TestSequentialParallelMatchesSerial: outer joins (hashed with a residual,
// and nested-loop), grouping and computed projections return the same rows in
// the same order at par 1, 2 and 4, on inputs large enough to be chunked.
func TestSequentialParallelMatchesSerial(t *testing.T) {
	src := factSource(t, 6000)
	for _, sql := range []string{
		"SELECT f.id, f.label, d.* FROM f AS f LEFT OUTER JOIN d AS d ON f.k = d.id AND d.region <> 'r1' AND f.m5 > 2",
		"SELECT d.id, f.id FROM d AS d LEFT OUTER JOIN f AS f ON d.id > f.id + 40 AND f.m2 = 1",
		"SELECT f.id FROM f AS f LEFT OUTER JOIN d AS d ON f.k = d.id AND 100 / (f.id - 4999) < 1000",
		"SELECT f.label, d.region, COUNT(*), SUM(f.m5), AVG(f.m3), MIN(d.name) FROM f AS f JOIN d AS d ON f.k = d.id GROUP BY f.label, d.region HAVING COUNT(f.m5) > 10",
		"SELECT f.m1 / 7, MAX(f.m6) FROM f AS f GROUP BY f.m1 / 7",
		"SELECT f.id * 2, f.label, f.m5 IS NULL, f.m3 - f.m6 FROM f AS f WHERE f.m4 + 0 > 1",
		"SELECT DISTINCT f.m2 + f.m4, f.label FROM f AS f ORDER BY f.label",
	} {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want, wantErr := (&Executor{Src: src, Run: parallel.NewRun(1)}).Select(sel)
		for _, par := range []int{2, 4} {
			got, err := (&Executor{Src: src, Run: parallel.NewRun(par)}).Select(sel)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("par=%d: error %v, want %v\nsql: %s", par, err, wantErr, sql)
				}
				continue
			}
			if err != nil {
				t.Fatalf("par=%d: %v\nsql: %s", par, err, sql)
			}
			if want.Len() == 0 {
				t.Fatalf("test setup: no rows\nsql: %s", sql)
			}
			identicalRows(t, fmt.Sprintf("par=%d %s", par, sql), got, want)
		}
	}
}
