package db

import "testing"

// TestResultSetsCarryViews checks the wire encoder's fast-path precondition:
// RESULTDB executions attach an aligned colstore view to their result sets
// (same length, one frame column per output column), which is what lets the
// v2 encoder reuse scan-time dictionaries.
func TestResultSetsCarryViews(t *testing.T) {
	d := New()
	if _, err := d.ExecScript(`
CREATE TABLE a (id INT PRIMARY KEY, name TEXT);
CREATE TABLE b (id INT PRIMARY KEY, a_id INT, v FLOAT);
INSERT INTO a VALUES (1, 'x'), (2, 'y'), (3, 'z');
INSERT INTO b VALUES (10, 1, 0.5), (11, 1, 1.5), (12, 3, 2.5);`); err != nil {
		t.Fatal(err)
	}
	res, err := d.Exec("SELECT RESULTDB a.name, b.v FROM a AS a, b AS b WHERE a.id = b.a_id")
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range res.Sets {
		if set.Vec == nil {
			t.Errorf("set %q has no colstore view attached", set.Name)
			continue
		}
		if set.Vec.Len() != len(set.Rows) {
			t.Errorf("set %q: view length %d != %d rows", set.Name, set.Vec.Len(), len(set.Rows))
		}
		if set.Vec.Frame.NumCols() != len(set.Columns) {
			t.Errorf("set %q: view has %d columns, set has %d", set.Name, set.Vec.Frame.NumCols(), len(set.Columns))
		}
		// Spot-check alignment: view values must equal the row values.
		for i := 0; i < set.Vec.Len(); i++ {
			for j := 0; j < len(set.Columns); j++ {
				if got, want := set.Vec.Frame.Col(j).Value(set.Vec.Index(i)), set.Rows[i][j]; got != want {
					t.Fatalf("set %q cell (%d,%d): view %v != row %v", set.Name, i, j, got, want)
				}
			}
		}
	}
}
