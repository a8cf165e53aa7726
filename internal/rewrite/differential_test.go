package rewrite

import (
	"fmt"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/reference"
	"resultdb/internal/sqlparse"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// This file is the differential oracle of the reproduction: for a query Q it
// computes the subdatabase six independent ways —
//
//	(1) brute force: internal/reference's denormalized single-table join, then
//	    one projection + dedup per output relation (the textbook reading of
//	    Definition 2.2/2.3: no semi-joins, no folding, no rewrite tricks, and
//	    no operator shared with the engine),
//	(2) native RESULTDB-SEMIJOIN (Algorithm 4),
//	(3)-(6) the four SQL rewrite methods RM1..RM4 (Section 3),
//
// and requires all six to agree exactly (sorted-row comparison per relation),
// in both RDB and RDBRP modes, at parallelism 1 and 4. Any bug in folding,
// reduction order, decomposition, dedup, or the rewrites shows up as a
// divergence from the brute-force reference.

// bruteForceSubdatabase is the reference result in db.Result form.
func bruteForceSubdatabase(d *db.Database, sel *sqlparse.Select, mode db.Mode) (*db.Result, error) {
	sets, err := reference.Subdatabase(d, sel, mode == db.ModeRDBRP)
	if err != nil {
		return nil, err
	}
	res := &db.Result{}
	for _, s := range sets {
		res.Sets = append(res.Sets, db.NewResultSet(s.Name, s.Columns, s.Rows))
	}
	return res, nil
}

// checkDifferential compares brute force vs native vs RM1..RM4 for one query
// in both modes; par is d's configured parallelism, for the failure label.
func checkDifferential(t *testing.T, d *db.Database, name string, sel *sqlparse.Select, par int) {
	t.Helper()
	for _, mode := range []db.Mode{db.ModeRDB, db.ModeRDBRP} {
		rwMode := ModeRDB
		if mode == db.ModeRDBRP {
			rwMode = ModeRDBRP
		}
		label := fmt.Sprintf("%s/mode%d/par%d", name, mode, par)
		ref, err := bruteForceSubdatabase(d, sel, mode)
		if err != nil {
			t.Fatalf("%s brute force: %v", label, err)
		}
		want := subdatabaseFingerprint(ref)

		native, err := d.QueryResultDB(sel, mode)
		if err != nil {
			t.Fatalf("%s native: %v", label, err)
		}
		if got := subdatabaseFingerprint(native); got != want {
			t.Errorf("%s: native disagrees with brute force:\ngot:  %.400s\nwant: %.400s",
				label, got, want)
		}
		for _, m := range Methods {
			res, err := RunMethod(d, d, sel, m, rwMode)
			if err != nil {
				t.Fatalf("%s %v: %v", label, m, err)
			}
			if got := subdatabaseFingerprint(res); got != want {
				t.Errorf("%s: %v disagrees with brute force:\ngot:  %.400s\nwant: %.400s",
					label, m, got, want)
			}
		}
	}
}

// parseSPJ parses a (possibly RESULTDB-annotated) query and clears the
// RESULTDB flag so the same Select drives all execution paths.
func parseSPJ(t *testing.T, sql string) *sqlparse.Select {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	sel.ResultDB = false
	sel.Preserving = false
	return sel
}

// TestDifferentialOracleJOB runs the full oracle over all 33 JOB templates at
// parallelism 1 and 4.
func TestDifferentialOracleJOB(t *testing.T) {
	for _, par := range []int{1, 4} {
		d := db.Open(db.Config{Parallelism: par})
		if err := job.Load(d, job.Config{Scale: 0.05, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		for _, q := range job.Queries() {
			checkDifferential(t, d, "job-"+q.Name, parseSPJ(t, q.SQL), par)
		}
	}
}

// TestDifferentialOracleStar runs the oracle on the star-schema queries
// (Figure 7's shape): the full-width star join and the payload-only RDB
// variant, each at two dimension selectivities.
func TestDifferentialOracleStar(t *testing.T) {
	cfg := star.DefaultConfig()
	queries := map[string]string{
		"star-full-050":    star.Query(cfg, 0.5),
		"star-full-100":    star.Query(cfg, 1.0),
		"star-payload-050": star.PayloadQuery(cfg, 0.5),
		"star-payload-100": star.PayloadQuery(cfg, 1.0),
	}
	for _, par := range []int{1, 4} {
		d := db.Open(db.Config{Parallelism: par})
		if err := star.Load(d, cfg); err != nil {
			t.Fatal(err)
		}
		for name, sql := range queries {
			checkDifferential(t, d, name, parseSPJ(t, sql), par)
		}
	}
}

// TestDifferentialOracleHierarchy runs the oracle on the hierarchy workload's
// subtype queries (the SPJ formulation of its subdatabase use case).
func TestDifferentialOracleHierarchy(t *testing.T) {
	queries := map[string]string{
		"hier-electronics": hierarchy.ResultDBElectronics,
		"hier-clothing":    hierarchy.ResultDBClothing,
	}
	for _, par := range []int{1, 4} {
		d := db.Open(db.Config{Parallelism: par})
		if err := hierarchy.Load(d, hierarchy.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		for name, sql := range queries {
			checkDifferential(t, d, name, parseSPJ(t, sql), par)
		}
	}
}
