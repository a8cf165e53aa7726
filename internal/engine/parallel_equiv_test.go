package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// The morsel-parallel operators promise bit-identical results at any degree
// of parallelism (ordered chunk merge), whichever form their inputs come in.
// These tests verify exact row-order equality between serial execution
// (par=1) over row-major inputs and several parallel degrees over every
// pairing of row-major and columnar inputs (see keyForms), on inputs large
// enough to actually engage chunking (> 2*parallel.Threshold).

// bigRelation builds a relation with n rows: (id, key, payload), where key is
// drawn from a domain small enough to generate plenty of join matches and
// duplicates.
func bigRelation(rng *rand.Rand, alias string, n, keyDomain int) *Relation {
	rel := &Relation{Cols: []ColRef{
		{Rel: alias, Name: "id", Kind: types.KindInt},
		{Rel: alias, Name: "key", Kind: types.KindInt},
		{Rel: alias, Name: "payload", Kind: types.KindText},
	}}
	rel.Rows = make([]types.Row, n)
	for i := 0; i < n; i++ {
		rel.Rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(keyDomain))),
			types.NewText(fmt.Sprintf("p%d", rng.Intn(keyDomain/2+1))),
		}
	}
	return rel
}

// identicalRows asserts exact equality: same schema width, same row count,
// same values in the same order.
func identicalRows(t *testing.T, what string, got, want *Relation) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: schema width %d != %d", what, len(got.Cols), len(want.Cols))
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: row count %d != %d", what, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if !got.Rows[i].Equal(want.Rows[i]) {
			t.Fatalf("%s: row %d differs:\n got %v\nwant %v", what, i, got.Rows[i], want.Rows[i])
		}
	}
}

var sweepDegrees = []int{2, 4, 7}

func TestHashJoinParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := bigRelation(rng, "l", 5000, 97)
	r := bigRelation(rng, "r", 3000, 97)
	want := HashJoin(l, r, []int{1}, []int{1}, 1, nil)
	if len(want.Rows) == 0 {
		t.Fatal("test setup: join produced no rows")
	}
	for lf, lrel := range keyForms(l) {
		for rf, rrel := range keyForms(r) {
			for _, par := range append([]int{1}, sweepDegrees...) {
				got := HashJoin(lrel, rrel, []int{1}, []int{1}, par, nil)
				identicalRows(t, fmt.Sprintf("HashJoin l as %s, r as %s, par=%d", lf, rf, par), got, want)
			}
		}
	}
}

func TestHashJoinParallelCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l := bigRelation(rng, "l", 1200, 7)
	r := bigRelation(rng, "r", 3, 7)
	want := HashJoin(l, r, nil, nil, 1, nil)
	if len(want.Rows) != len(l.Rows)*len(r.Rows) {
		t.Fatalf("cross product has %d rows, want %d", len(want.Rows), len(l.Rows)*len(r.Rows))
	}
	for _, par := range sweepDegrees {
		got := HashJoin(l, r, nil, nil, par, nil)
		identicalRows(t, fmt.Sprintf("cross par=%d", par), got, want)
	}
}

func TestSemiJoinParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	l := bigRelation(rng, "l", 6000, 211)
	r := bigRelation(rng, "r", 500, 211)
	want := SemiJoin(l, []int{1}, r, []int{1}, 1, nil)
	if len(want.Rows) == 0 || len(want.Rows) == len(l.Rows) {
		t.Fatalf("test setup: semi-join kept %d of %d rows (want a strict subset)",
			len(want.Rows), len(l.Rows))
	}
	for lf, lrel := range keyForms(l) {
		for rf, rrel := range keyForms(r) {
			for _, par := range append([]int{1}, sweepDegrees...) {
				got := SemiJoin(lrel, []int{1}, rrel, []int{1}, par, nil)
				what := fmt.Sprintf("SemiJoin l as %s, r as %s, par=%d", lf, rf, par)
				identicalRows(t, what, got, want)
				if got.Vec != nil && got.Vec.Len() != len(got.Rows) {
					t.Fatalf("%s: narrowed view has %d rows, relation %d", what, got.Vec.Len(), len(got.Rows))
				}
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
	want := &Relation{Cols: rel.Cols}
	seen := types.NewRowSet()
	for _, row := range rel.Rows {
		if seen.Add(row) {
			want.Rows = append(want.Rows, row)
		}
	}
	if len(want.Rows) == len(rel.Rows) {
		t.Fatal("test setup: no duplicates to remove")
	}
	// Distinct runs at the default degree, which the environment sets.
	for form, frel := range keyForms(rel) {
		for _, par := range append([]int{1}, sweepDegrees...) {
			t.Setenv(parallel.EnvVar, strconv.Itoa(par))
			identicalRows(t, fmt.Sprintf("Distinct on %s, par=%d", form, par), frel.Distinct(), want)
		}
	}
	// Project+dedup in one step finds the same rows from the unprojected
	// relation, and keeps the result columnar when its input was.
	for form, frel := range keyForms(full) {
		for _, par := range append([]int{1}, sweepDegrees...) {
			got := frel.ProjectDistinctPar([]int{1, 2}, par)
			what := fmt.Sprintf("ProjectDistinctPar on %s, par=%d", form, par)
			identicalRows(t, what, got, want)
			if (got.Vec != nil) != (form == "view") {
				t.Fatalf("%s: result view = %v", what, got.Vec != nil)
			}
			if got.Vec != nil {
				for i, row := range got.Rows {
					for c := range row {
						if v := got.Vec.Frame.Col(c).Value(got.Vec.Index(i)); !types.Equal(v, row[c]) {
							t.Fatalf("%s: view cell (%d,%d) = %v, row has %v", what, i, c, v, row[c])
						}
					}
				}
			}
		}
	}
}

func TestProjectParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	rel := bigRelation(rng, "p", 4000, 50)
	t.Setenv(parallel.EnvVar, "1")
	want := rel.Project([]int{2, 0})
	for _, par := range sweepDegrees {
		t.Setenv(parallel.EnvVar, strconv.Itoa(par))
		identicalRows(t, fmt.Sprintf("Project par=%d", par), rel.Project([]int{2, 0}), want)
	}
}

func TestFilterRowsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rel := bigRelation(rng, "f", 7000, 113)
	check := func(row types.Row) (types.Value, error) {
		return types.NewBool(row[1].Int()%3 == 0), nil
	}
	want, err := filterRows(rel.Rows, check, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(want) == len(rel.Rows) {
		t.Fatalf("test setup: filter kept %d of %d rows", len(want), len(rel.Rows))
	}
	for _, par := range sweepDegrees {
		got, err := filterRows(rel.Rows, check, par)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("par=%d: kept %d rows, want %d", par, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("par=%d: row %d differs", par, i)
			}
		}
	}
}

func TestFilterRowsParallelErrorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	rel := bigRelation(rng, "e", 6000, 50)
	// Fail on the first row whose id is >= 4999; the serial scan hits row
	// 4999 first, and MapErr must report the same (lowest-chunk) error.
	boom := fmt.Errorf("boom")
	check := func(row types.Row) (types.Value, error) {
		if row[0].Int() >= 4999 {
			return types.Value{}, boom
		}
		return types.NewBool(true), nil
	}
	_, wantErr := filterRows(rel.Rows, check, 1)
	if wantErr == nil {
		t.Fatal("test setup: serial filter did not error")
	}
	for _, par := range sweepDegrees {
		_, err := filterRows(rel.Rows, check, par)
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
	want, err := JoinAll(preds, clone(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("test setup: join produced no rows")
	}
	for _, par := range sweepDegrees {
		got, err := JoinAll(preds, clone(), par, nil)
		if err != nil {
			t.Fatal(err)
		}
		identicalRows(t, fmt.Sprintf("JoinAll par=%d", par), got, want)
	}
}
