package hierarchy

import (
	"testing"

	"resultdb/internal/db"
)

func TestLoadAndSubtypePartition(t *testing.T) {
	d := db.New()
	cfg := Config{Products: 200, Seed: 1}
	if err := Load(d, cfg); err != nil {
		t.Fatal(err)
	}
	p, _ := d.Table("products")
	e, _ := d.Table("electronics")
	c, _ := d.Table("clothing")
	if p.Len() != 200 {
		t.Errorf("products = %d", p.Len())
	}
	if e.Len()+c.Len() != 200 {
		t.Errorf("subtypes %d + %d != 200", e.Len(), c.Len())
	}
	// Every subtype row references an existing product (FK integrity).
	res, err := d.QuerySQL(`SELECT COUNT(*) FROM electronics AS e, products AS p WHERE e.pid = p.id`)
	if err != nil {
		t.Fatal(err)
	}
	if res.First().Rows[0][0].Int() != int64(e.Len()) {
		t.Error("dangling electronics FK")
	}
}

// TestOuterJoinVsResultDBConsistency: the RESULTDB formulation returns the
// same subtype rows that the Listing 2 OUTER JOIN formulation pads into a
// single table — without any NULLs.
func TestOuterJoinVsResultDBConsistency(t *testing.T) {
	d := db.New()
	if err := Load(d, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	outer, err := d.QuerySQL(OuterJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Count non-NULL electronics and clothing rows in the padded result.
	set := outer.First()
	var outerElec, outerCloth int
	for _, row := range set.Rows {
		if !row[0].IsNull() { // e.id
			outerElec++
		}
		if !row[3].IsNull() { // c.id
			outerCloth++
		}
	}

	elec, err := d.QuerySQL(ResultDBElectronics)
	if err != nil {
		t.Fatal(err)
	}
	cloth, err := d.QuerySQL(ResultDBClothing)
	if err != nil {
		t.Fatal(err)
	}
	if elec.First().NumRows() != outerElec {
		t.Errorf("electronics: RESULTDB %d vs outer-join %d", elec.First().NumRows(), outerElec)
	}
	if cloth.First().NumRows() != outerCloth {
		t.Errorf("clothing: RESULTDB %d vs outer-join %d", cloth.First().NumRows(), outerCloth)
	}
	// And RESULTDB results contain no NULLs at all.
	for _, res := range []*db.Result{elec, cloth} {
		for _, row := range res.First().Rows {
			for _, v := range row {
				if v.IsNull() {
					t.Fatal("NULL in RESULTDB subtype result")
				}
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	d1, d2 := db.New(), db.New()
	cfg := Config{Products: 100, Seed: 9}
	if err := Load(d1, cfg); err != nil {
		t.Fatal(err)
	}
	if err := Load(d2, cfg); err != nil {
		t.Fatal(err)
	}
	t1, _ := d1.Table("products")
	t2, _ := d2.Table("products")
	r2 := t2.Rows()
	for i, row := range t1.Rows() {
		if !row.Equal(r2[i]) {
			t.Fatalf("row %d differs across identical seeds", i)
		}
	}
}
