package core

import (
	"fmt"
	"math/rand"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/engine"
	"resultdb/internal/stats"
	"resultdb/internal/types"
)

// TestChooseRootTieBreakOrdinal pins the tie-breaking rule: when candidates
// are equal under a strategy's criterion, the root is the earliest relation
// in FROM-clause order — never an accident of sorting or of name ordering.
func TestChooseRootTieBreakOrdinal(t *testing.T) {
	cols := []catalog.Column{intCol("id"), intCol("k")}
	src := memSource{
		"ra": mkTable(t, "ra", cols, ir(1, 10), ir(2, 20)),
		"rb": mkTable(t, "rb", cols, ir(1, 10), ir(2, 20)),
		"rc": mkTable(t, "rc", cols, ir(1, 10), ir(2, 20)),
	}
	// Chain x - y - z with x and z projected: under the heuristic x and z
	// tie (both projected, both degree 1), so FROM order must decide.
	query := func(from string) string {
		return fmt.Sprintf(`SELECT x.id, z.id FROM %s WHERE x.k = y.k AND y.k = z.k`, from)
	}
	cases := []struct {
		from, want string
	}{
		{"ra AS x, rb AS y, rc AS z", "x"},
		{"rc AS z, rb AS y, ra AS x", "z"},
		// Alias names sort against FROM order: ordinal must still win.
		{"ra AS z, rb AS y, rc AS x", "z"},
	}
	for _, c := range cases {
		spec, rels := analyze(t, src, query(c.from))
		_, st, err := SemiJoinReduce(spec, rels, nil, Options{Root: RootHeuristic})
		if err != nil {
			t.Fatalf("FROM %s: %v", c.from, err)
		}
		if st.Root != c.want {
			t.Errorf("FROM %s: root = %s, want %s (ordinal tie-break)", c.from, st.Root, c.want)
		}
	}
	// RootMaxDegree on a 4-chain: the two middle nodes tie at degree 2;
	// the earlier one in FROM order must win.
	src4 := chainSource(t)
	spec, rels := analyze(t, src4, chainQuery)
	_, st, err := SemiJoinReduce(spec, rels, nil, Options{Root: RootMaxDegree})
	if err != nil {
		t.Fatal(err)
	}
	if st.Root != "r2" {
		t.Errorf("RootMaxDegree root = %s, want r2 (first of the degree-2 tie)", st.Root)
	}
}

// statsFor builds TableStats for a spec the way db.reduceSpec does: one entry
// per alias, keyed lower-cased, from the base table's statistics.
func statsFor(t *testing.T, src memSource, spec *engine.SPJSpec) map[string]*stats.Table {
	t.Helper()
	out := make(map[string]*stats.Table)
	for _, r := range spec.Rels {
		tab, err := src.Table(r.Table)
		if err != nil {
			t.Fatal(err)
		}
		out[r.Alias] = stats.FromTable(tab)
	}
	return out
}

func relFingerprint(rel *engine.Relation) string {
	s := ""
	for _, row := range rel.Rows() {
		for _, v := range row {
			s += v.String() + "|"
		}
		s += "\n"
	}
	return s
}

// TestCostBasedMatchesHeuristic is the core-level byte-identity check: the
// cost-based planner may pick any root, semi-join order, Bloom decision, and
// range prefilter, but every reduced relation must come out identical to the
// heuristic plan's, row for row and in the same order.
func TestCostBasedMatchesHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cols := []catalog.Column{intCol("id"), intCol("k")}
	// A fact table large enough to clear the SIP (512) and Bloom (4096)
	// gates, against a dimension with a narrow key range so both fire.
	factRows := make([]types.Row, 6000)
	for i := range factRows {
		factRows[i] = ir(i, rng.Intn(1000))
	}
	dimRows := make([]types.Row, 50)
	for i := range dimRows {
		dimRows[i] = ir(i, 100+rng.Intn(50))
	}
	midRows := make([]types.Row, 800)
	for i := range midRows {
		midRows[i] = ir(i, rng.Intn(400))
	}
	src := memSource{
		"fact": mkTable(t, "fact", cols, factRows...),
		"dim":  mkTable(t, "dim", cols, dimRows...),
		"mid":  mkTable(t, "mid", cols, midRows...),
	}
	query := `SELECT f.id, m.id FROM fact AS f, mid AS m, dim AS d
		WHERE f.k = m.k AND m.k = d.k`
	for _, early := range []bool{false, true} {
		spec, rels := analyze(t, src, query)
		base, _, err := SemiJoinReduce(spec, rels, nil, Options{EarlyStop: early})
		if err != nil {
			t.Fatal(err)
		}
		spec2, rels2 := analyze(t, src, query)
		opts := Options{EarlyStop: early, CostBased: true, TableStats: statsFor(t, src, spec2)}
		got, st, err := SemiJoinReduce(spec2, rels2, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		for alias, want := range base {
			g, ok := got[alias]
			if !ok {
				t.Fatalf("earlyStop=%v: alias %s missing from cost-based result", early, alias)
			}
			if relFingerprint(g) != relFingerprint(want) {
				t.Errorf("earlyStop=%v: alias %s differs between heuristic and cost-based plans (%d vs %d rows)",
					early, alias, g.Len(), want.Len())
			}
		}
		if st.Root == "" {
			t.Errorf("earlyStop=%v: cost-based run recorded no root", early)
		}
	}
}

// TestCostBasedSIPFires checks the sideways-information-passing path actually
// engages on a range-selective edge (so the equivalence test above is not
// vacuously passing with the filter disabled).
func TestCostBasedSIPFires(t *testing.T) {
	cols := []catalog.Column{intCol("id"), intCol("k")}
	factRows := make([]types.Row, 4000)
	for i := range factRows {
		factRows[i] = ir(i, i%2000)
	}
	dimRows := make([]types.Row, 40)
	for i := range dimRows {
		dimRows[i] = ir(i, i)
	}
	src := memSource{
		"fact": mkTable(t, "fact", cols, factRows...),
		"dim":  mkTable(t, "dim", cols, dimRows...),
	}
	spec, rels := analyze(t, src, `SELECT f.id FROM fact AS f, dim AS d WHERE f.k = d.k`)
	opts := Options{CostBased: true, TableStats: statsFor(t, src, spec)}
	_, st, err := SemiJoinReduce(spec, rels, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.RangeSkipped == 0 {
		t.Error("RangeSkipped = 0: the range prefilter never engaged on a highly selective edge")
	}
}
