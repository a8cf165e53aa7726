package db

import "testing"

// TestResultSetsCarryViews: every set the engine produces carries the
// columnar view its rows were boxed from, one frame column per output column
// — the v2 encoder's fast-path precondition — whichever operators built it: a
// reduced scan, a join output projected for a single-table SELECT, the
// Decompose strategy, a folded (cyclic) reduction, the sequential pipeline.
func TestResultSetsCarryViews(t *testing.T) {
	d := New()
	if _, err := d.ExecScript(`
CREATE TABLE a (id INT PRIMARY KEY, name TEXT);
CREATE TABLE b (id INT PRIMARY KEY, a_id INT, v FLOAT);
CREATE TABLE c (id INT PRIMARY KEY, a_id INT, b_id INT);
INSERT INTO a VALUES (1, 'x'), (2, 'y'), (3, 'z');
INSERT INTO b VALUES (10, 1, 0.5), (11, 1, 1.5), (12, 3, 2.5);
INSERT INTO c VALUES (20, 1, 10), (21, 3, 12), (22, 2, 11);`); err != nil {
		t.Fatal(err)
	}
	for name, sql := range map[string]string{
		"RDB":                    "SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id",
		"RDBRP":                  "SELECT RESULTDB PRESERVING a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id",
		"single table over join": "SELECT a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id",
		"Decompose (residual)":   "SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id AND a.id < b.id",
		"cyclic (folded)":        "SELECT RESULTDB a.name, b.v, c.id FROM a AS a, b AS b, c AS c WHERE a.id = b.a_id AND b.id = c.b_id AND c.a_id = a.id",
		"sequential pipeline":    "SELECT a.name, COUNT(*) FROM a AS a LEFT JOIN b AS b ON a.id = b.a_id GROUP BY a.name ORDER BY a.name",
	} {
		res, err := d.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, set := range res.Sets {
			if len(set.Rows) == 0 {
				t.Errorf("%s: set %q is empty; the shape is not exercised", name, set.Name)
			}
			if set.Vec == nil {
				t.Errorf("%s: set %q has no colstore view attached", name, set.Name)
			} else if set.Vec.Frame.NumCols() != len(set.Columns) {
				t.Errorf("%s: set %q: view has %d columns, set has %d", name, set.Name, set.Vec.Frame.NumCols(), len(set.Columns))
			}
		}
	}
}
