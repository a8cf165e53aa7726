package engine

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/sqlparse"
	"resultdb/internal/stats"
	"resultdb/internal/storage"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// statsOf is the StatsOf an executor over src gets from the database: each
// table version's own statistics.
func statsOf(src memSource) func(string) *stats.Table {
	return func(table string) *stats.Table {
		t, err := src.Table(table)
		if err != nil {
			return nil
		}
		return stats.Of(t)
	}
}

// multiset renders r's rows order-insensitively: each row as its cells keyed
// by alias-qualified column (so the column order a join order produces does
// not matter), the rows sorted.
func multiset(r *Relation) string {
	rows := make([]string, r.Len())
	cells := make([]string, len(r.Cols))
	for i, row := range r.Vec.Rows() {
		for c, v := range row {
			cells[c] = r.Cols[c].Rel + "." + r.Cols[c].Name + "=" + v.String()
		}
		sort.Strings(cells)
		rows[i] = strings.Join(cells, ",")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// joinSequence runs spec on ex under a tracer and returns the result and the
// aliases in the order the greedy orderer joined them.
func joinSequence(t *testing.T, ex *Executor, spec *SPJSpec) (*Relation, string) {
	t.Helper()
	ex.Tracer = trace.New("")
	rel, err := ex.RunSPJ(spec)
	if err != nil {
		t.Fatal(err)
	}
	var seq []string
	for _, sp := range ex.Tracer.Finish().Spans {
		if sp.Op == "hash-join" || sp.Op == "cross-join" {
			seq = append(seq, sp.Label)
		}
	}
	return rel, strings.Join(seq, " ")
}

// TestGreedyJoinOrderStatsInvariantRandomized: the greedy orderer scored by
// the containment model over each table's statistics and the same orderer
// scored by bare cardinality join the same row multiset on random 3–4 table
// queries — the join order never changes semantics — and the statistics do
// reorder some of them, so the comparison is not vacuous.
func TestGreedyJoinOrderStatsInvariantRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reordered := 0
	for trial := 0; trial < 60; trial++ {
		nTables := 3 + rng.Intn(2)
		src := memSource{}
		for i := 0; i < nTables; i++ {
			name := string(rune('a' + i))
			def := catalog.MustTableDef(name, []catalog.Column{
				{Name: "id", Type: types.KindInt},
				{Name: "j", Type: types.KindInt},
				{Name: "k", Type: types.KindInt},
			})
			src[name] = randomTable(t, def, rng, 5+rng.Intn(20))
		}
		var preds []string
		for i := 1; i < nTables; i++ {
			l := string(rune('a' + i))
			r := string(rune('a' + rng.Intn(i)))
			cols := []string{"j", "k"}
			preds = append(preds, l+"."+cols[rng.Intn(2)]+" = "+r+"."+cols[rng.Intn(2)])
		}
		if rng.Intn(2) == 0 {
			// A filter makes the scanned cardinality smaller than the
			// statistics' row count, so KeyNDV's cap by rows is exercised.
			preds = append(preds, "b.id < 8")
		}
		var from []string
		for i := 0; i < nTables; i++ {
			n := string(rune('a' + i))
			from = append(from, n+" AS "+n)
		}
		sql := "SELECT a.id FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(preds, " AND ")
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := AnalyzeSPJ(sel, src)
		if err != nil {
			t.Fatal(err)
		}
		plain, plainSeq := joinSequence(t, &Executor{Src: src}, spec)
		withStats, statsSeq := joinSequence(t, &Executor{Src: src, StatsOf: statsOf(src)}, spec)
		if plain.Len() != withStats.Len() || multiset(plain) != multiset(withStats) {
			t.Fatalf("trial %d: %q: %d rows joined %s without statistics, %d rows joined %s with them",
				trial, sql, plain.Len(), plainSeq, withStats.Len(), statsSeq)
		}
		if plainSeq != statsSeq {
			reordered++
		}
	}
	if reordered == 0 {
		t.Error("statistics reordered no trial: the comparison is vacuous")
	}
	t.Logf("%d of 60 trials joined in another order with statistics", reordered)
}

func randomTable(t *testing.T, def *catalog.TableDef, rng *rand.Rand, rows int) *storage.Table {
	t.Helper()
	tab := mkTable(t, def.Name, def.Columns, nil)
	for r := 0; r < rows; r++ {
		err := tab.Insert(types.Row{
			types.NewInt(int64(r)),
			types.NewInt(int64(rng.Intn(6))),
			types.NewInt(int64(rng.Intn(4))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestGreedyJoinOrderWideChainWithStats: a 16-relation chain plans and joins
// with statistics — the greedy orderer has no relation limit.
func TestGreedyJoinOrderWideChainWithStats(t *testing.T) {
	src := memSource{}
	var from, preds []string
	for i := 0; i < 16; i++ {
		name := "r" + string(rune('a'+i))
		def := catalog.MustTableDef(name, []catalog.Column{
			{Name: "id", Type: types.KindInt},
		})
		src[name] = mkTable(t, name, def.Columns, nil, ir(1), ir(2))
		from = append(from, name+" AS "+name)
		if i > 0 {
			prev := "r" + string(rune('a'+i-1))
			preds = append(preds, name+".id = "+prev+".id")
		}
	}
	sql := "SELECT ra.id FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(preds, " AND ")
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Src: src, StatsOf: statsOf(src)}
	rel, err := ex.Select(sel)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("rows = %d, want 2", rel.Len())
	}
}
