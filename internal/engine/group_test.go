package engine

import (
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/colstore"
	"resultdb/internal/sqlparse"
)

// salesSource: one fact table for grouping tests.
func salesSource(t *testing.T) memSource {
	t.Helper()
	return memSource{
		"sales": mkTable(t, "sales",
			[]catalog.Column{intCol("id"), textCol("region"), textCol("item"), intCol("amount")}, nil,
			ir(1, "east", "apple", 10),
			ir(2, "east", "pear", 20),
			ir(3, "west", "apple", 5),
			ir(4, "west", "pear", 7),
			ir(5, "west", "apple", 3),
			ir(6, "north", "plum", nil)),
	}
}

func TestGroupByBasic(t *testing.T) {
	rel := runSelect(t, salesSource(t), `
		SELECT s.region, COUNT(*), SUM(s.amount)
		FROM sales AS s GROUP BY s.region ORDER BY s.region`)
	expectRows(t, rel,
		"east | 2 | 30", "north | 1 | NULL", "west | 3 | 15")
	if rel.Cols[0].Name != "region" {
		t.Errorf("column name = %s", rel.Cols[0].Name)
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	rel := runSelect(t, salesSource(t), `
		SELECT s.region, s.item, COUNT(*)
		FROM sales AS s WHERE s.amount IS NOT NULL
		GROUP BY s.region, s.item`)
	expectRows(t, rel,
		"east | apple | 1", "east | pear | 1",
		"west | apple | 2", "west | pear | 1")
}

func TestGroupByHaving(t *testing.T) {
	rel := runSelect(t, salesSource(t), `
		SELECT s.region, SUM(s.amount) AS total
		FROM sales AS s GROUP BY s.region HAVING SUM(s.amount) > 10`)
	expectRows(t, rel, "east | 30", "west | 15")
	// HAVING referencing a group key.
	rel = runSelect(t, salesSource(t), `
		SELECT s.region, COUNT(*) FROM sales AS s
		GROUP BY s.region HAVING s.region = 'west'`)
	expectRows(t, rel, "west | 3")
}

func TestGroupByComputedOutput(t *testing.T) {
	rel := runSelect(t, salesSource(t), `
		SELECT s.region, SUM(s.amount) * 2 + COUNT(*) AS score
		FROM sales AS s WHERE s.amount IS NOT NULL GROUP BY s.region`)
	expectRows(t, rel, "east | 62", "west | 33")
	if rel.Cols[1].Name != "score" {
		t.Errorf("alias = %s", rel.Cols[1].Name)
	}
}

func TestGroupByOverJoin(t *testing.T) {
	src := shopSource(t)
	rel := runSelect(t, src, `
		SELECT c.name, COUNT(*) FROM customers AS c, orders AS o
		WHERE c.id = o.cid GROUP BY c.name ORDER BY c.name`)
	expectRows(t, rel, "custA | 2", "custB | 3", "custC | 1")
}

func TestGroupByErrors(t *testing.T) {
	src := salesSource(t)
	bad := []string{
		// Non-grouped column in the select list.
		"SELECT s.item, COUNT(*) FROM sales AS s GROUP BY s.region",
		// Star with grouping.
		"SELECT * FROM sales AS s GROUP BY s.region",
	}
	for _, sql := range bad {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s should parse: %v", sql, err)
		}
		ex := &Executor{Src: src}
		if _, err := ex.Select(sel); err == nil {
			t.Errorf("%s should fail", sql)
		}
	}
}

func TestGroupByEmptyInput(t *testing.T) {
	rel := runSelect(t, salesSource(t), `
		SELECT s.region, COUNT(*) FROM sales AS s WHERE s.amount > 999 GROUP BY s.region`)
	if rel.Len() != 0 {
		t.Errorf("empty grouping produced %d rows", rel.Len())
	}
	// Without GROUP BY, aggregates over empty input yield one row.
	rel = runSelect(t, salesSource(t), `
		SELECT COUNT(*) FROM sales AS s WHERE s.amount > 999`)
	if rel.Len() != 1 || rel.Vec.Rows()[0][0].Int() != 0 {
		t.Errorf("global aggregate over empty input = %v", rel.Vec.Rows())
	}
}

func TestGroupByRendersAndReparses(t *testing.T) {
	sql := "SELECT s.region, COUNT(*) FROM sales AS s WHERE s.amount > 0 GROUP BY s.region HAVING COUNT(*) > 1 ORDER BY s.region LIMIT 3"
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sqlparse.ParseSelect(sel.SQL())
	if err != nil {
		t.Fatalf("rendered GROUP BY does not reparse: %v\n%s", err, sel.SQL())
	}
	if again.SQL() != sel.SQL() {
		t.Errorf("render not stable: %s vs %s", sel.SQL(), again.SQL())
	}
}

// TestGroupedExpressions: a grouped select list and HAVING are bound by the
// ordinary binder against the frame of keys and aggregates, so grouped context
// takes every expression form and follows three-valued logic. (north's only
// amount is NULL: its SUM is NULL.)
func TestGroupedExpressions(t *testing.T) {
	for _, c := range []struct {
		name, sql string
		want      []string
	}{
		{"TRUE OR NULL keeps the group",
			"SELECT s.region FROM sales AS s GROUP BY s.region HAVING COUNT(*) >= 1 OR SUM(s.amount) > 100",
			[]string{"east", "north", "west"}},
		{"NULL OR TRUE keeps the group",
			"SELECT s.region FROM sales AS s GROUP BY s.region HAVING SUM(s.amount) > 100 OR COUNT(*) >= 1",
			[]string{"east", "north", "west"}},
		{"FALSE AND NULL is FALSE, so its negation is TRUE",
			"SELECT s.region FROM sales AS s GROUP BY s.region HAVING NOT (COUNT(*) > 5 AND SUM(s.amount) > 0)",
			[]string{"east", "north", "west"}},
		{"TRUE AND NULL drops the group",
			"SELECT s.region FROM sales AS s GROUP BY s.region HAVING COUNT(*) >= 1 AND SUM(s.amount) > 0",
			[]string{"east", "west"}},
		{"BETWEEN over an aggregate",
			"SELECT s.region FROM sales AS s GROUP BY s.region HAVING SUM(s.amount) BETWEEN 1 AND 20",
			[]string{"west"}},
		{"IS NULL over an aggregate",
			"SELECT s.region FROM sales AS s GROUP BY s.region HAVING SUM(s.amount) IS NULL",
			[]string{"north"}},
		{"IS NOT NULL over an aggregate",
			"SELECT s.region FROM sales AS s GROUP BY s.region HAVING SUM(s.amount) IS NOT NULL",
			[]string{"east", "west"}},
		{"IN list over a grouping key",
			"SELECT s.region, COUNT(*) FROM sales AS s GROUP BY s.region HAVING s.region IN ('east', 'north')",
			[]string{"east | 2", "north | 1"}},
		{"IN list over an aggregate",
			"SELECT s.region FROM sales AS s GROUP BY s.region HAVING COUNT(*) IN (1, 3)",
			[]string{"north", "west"}},
		{"LIKE over a grouping key",
			"SELECT s.region FROM sales AS s GROUP BY s.region HAVING s.region LIKE '%st'",
			[]string{"east", "west"}},
		{"LIKE over an aggregate",
			"SELECT s.region FROM sales AS s GROUP BY s.region HAVING MIN(s.item) LIKE 'p%'",
			[]string{"north"}},
		{"a predicate as a select item",
			"SELECT s.region, SUM(s.amount) IS NULL FROM sales AS s GROUP BY s.region",
			[]string{"east | false", "north | true", "west | false"}},
		{"GROUP BY an expression resolves by SQL text",
			"SELECT s.id + s.amount, COUNT(*) FROM sales AS s WHERE s.amount IS NOT NULL GROUP BY s.id + s.amount HAVING s.id + s.amount > 8",
			[]string{"11 | 2", "22 | 1"}},
		{"a grouped expression inside a larger one",
			"SELECT (s.id + s.amount) * 2 FROM sales AS s WHERE s.id < 3 GROUP BY s.id + s.amount",
			[]string{"22", "44"}},
		{"a key column under another spelling",
			"SELECT region, COUNT(*) FROM sales AS s GROUP BY s.region HAVING S.REGION <> 'west'",
			[]string{"east | 2", "north | 1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			expectRows(t, runSelect(t, salesSource(t), c.sql), c.want...)
		})
	}
}

// TestAggregateComputedOnce: an aggregate call that appears twice in the
// select list and again in HAVING is one column of the grouped frame — every
// mention resolves to it by SQL text — so the output shows the same vector
// twice, under HAVING's selection of the grouped frame's three groups.
func TestAggregateComputedOnce(t *testing.T) {
	rel := runSelect(t, salesSource(t), `
		SELECT s.region, SUM(s.amount), SUM(s.amount) AS again FROM sales AS s
		GROUP BY s.region HAVING SUM(s.amount) > 10`)
	expectRows(t, rel, "east | 30 | 30", "west | 15 | 15")
	f := rel.Vec.Frame
	if f.Col(1) != f.Col(2) {
		t.Error("the two SUM(s.amount) items are different vectors: the aggregate was computed twice")
	}
	if _, ok := f.Col(1).(*colstore.Int64Column); !ok || f.Col(1).Len() != 3 {
		t.Errorf("SUM column is %T of %d entries, want the grouped frame's INTEGER vector of 3", f.Col(1), f.Col(1).Len())
	}
	// A computed item over the same call reads that column too.
	rel = runSelect(t, salesSource(t), `
		SELECT s.region, SUM(s.amount) * 2 + COUNT(*) FROM sales AS s
		GROUP BY s.region HAVING SUM(s.amount) * 2 + COUNT(*) > 40`)
	expectRows(t, rel, "east | 62")
}
