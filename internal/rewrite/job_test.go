package rewrite

import (
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
	"resultdb/internal/workload/job"
)

// TestMethodsAgreeOnJOBTemplates runs all four rewrite methods against every
// JOB template at a small scale and requires each to produce exactly the
// native RESULTDB result (both modes). This is the cross-system consistency
// experiment behind the paper's Figure 8 comparability.
func TestMethodsAgreeOnJOBTemplates(t *testing.T) {
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.05, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	for _, q := range job.Queries() {
		sel, err := sqlparse.ParseSelect(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeRDB, ModeRDBRP} {
			dbMode := db.ModeRDB
			if mode == ModeRDBRP {
				dbMode = db.ModeRDBRP
			}
			native, err := d.QueryResultDB(sel, dbMode)
			if err != nil {
				t.Fatalf("%s native: %v", q.Name, err)
			}
			want := subdatabaseFingerprint(native)
			for _, m := range Methods {
				res, err := RunMethod(d, d, sel, m, mode)
				if err != nil {
					t.Fatalf("%s %v mode %d: %v", q.Name, m, mode, err)
				}
				if got := subdatabaseFingerprint(res); got != want {
					t.Errorf("%s %v mode %d disagrees with native:\ngot:  %.300s\nwant: %.300s",
						q.Name, m, mode, got, want)
				}
			}
		}
	}
}

func TestRM4RequiresSingleColumnPK(t *testing.T) {
	d := db.New()
	if _, err := d.ExecScript(`
		CREATE TABLE nopk (x INTEGER, y INTEGER);
		CREATE TABLE other (id INTEGER PRIMARY KEY, x INTEGER);
		INSERT INTO nopk VALUES (1, 2);
		INSERT INTO other VALUES (1, 1);
	`); err != nil {
		t.Fatal(err)
	}
	sel, _ := sqlparse.ParseSelect("SELECT n.y, o.id FROM nopk AS n, other AS o WHERE n.x = o.x")
	if _, err := Rewrite(sel, d, RM4, ModeRDB); err == nil {
		t.Error("RM4 without a primary key should fail")
	}
	// RM1 still works — the advisor-driven runner can fall back.
	if _, err := Rewrite(sel, d, RM1, ModeRDB); err != nil {
		t.Errorf("RM1 should not need a PK: %v", err)
	}
}

func TestRM3FallbackUsesPKForMultiPredicateRelations(t *testing.T) {
	d := db.New()
	if _, err := d.ExecScript(`
		CREATE TABLE hub (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER);
		CREATE TABLE l (id INTEGER PRIMARY KEY, a INTEGER);
		CREATE TABLE r (id INTEGER PRIMARY KEY, b INTEGER);
		INSERT INTO hub VALUES (1, 10, 20), (2, 11, 21), (3, 10, 21);
		INSERT INTO l VALUES (1, 10);
		INSERT INTO r VALUES (1, 21);
	`); err != nil {
		t.Fatal(err)
	}
	// hub joins both neighbors: only hub(3) survives (a=10 AND b=21).
	sel, _ := sqlparse.ParseSelect(`
		SELECT h.id FROM hub AS h, l AS l, r AS r WHERE h.a = l.a AND h.b = r.b`)
	p, err := Rewrite(sel, d, RM3, ModeRDB)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Queries[0].SQL, "h.id IN (SELECT h__inner.id") {
		t.Errorf("expected PK fallback subquery, got: %s", p.Queries[0].SQL)
	}
	res, err := Run(d, p)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedRows(res.Sets[0].Rows)
	if strings.Join(got, ",") != "3" {
		t.Errorf("hub rows = %v, want [3]", got)
	}
}

func TestPlanStatementsAndTeardownOnError(t *testing.T) {
	d := paperExample(t)
	sel, _ := sqlparse.ParseSelect(listing1)
	p, err := Rewrite(sel, d, RM2, ModeRDB)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Statements()); got != len(p.Setup)+len(p.Queries)+len(p.Teardown) {
		t.Errorf("Statements() = %d entries", got)
	}
	// Sabotage one query; teardown must still drop the view.
	p.Queries[0].SQL = "SELECT broken FROM missing"
	if _, err := Run(d, p); err == nil {
		t.Fatal("sabotaged plan should fail")
	}
	for _, name := range d.TableNames() {
		if strings.HasPrefix(name, "resultdb_rm2_mv") {
			t.Errorf("view %q leaked after failed Run", name)
		}
	}
}

func TestMethodString(t *testing.T) {
	if RM1.String() != "RM1" || RM4.String() != "RM4" {
		t.Error("method names")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should render something")
	}
}
