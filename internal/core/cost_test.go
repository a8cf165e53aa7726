package core

import (
	"fmt"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/stats"
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
		_, st, err := SemiJoinReduce(bare, spec, rels, nil, Options{Root: RootHeuristic})
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
	_, st, err := SemiJoinReduce(bare, spec, rels, nil, Options{Root: RootMaxDegree})
	if err != nil {
		t.Fatal(err)
	}
	if st.Root != "r2" {
		t.Errorf("RootMaxDegree root = %s, want r2 (first of the degree-2 tie)", st.Root)
	}
}

// TestRootSimAllocatesNothing holds the schedule to its doc: once built,
// simulating a candidate root — the BFS orientation, both passes and the
// containment estimate of every step — and computing the greedy bottom-up
// order from it allocate nothing, with and without early stop. Each edge's
// key columns and base NDVs are resolved when the schedule is built, never
// per step.
func TestRootSimAllocatesNothing(t *testing.T) {
	src := chainSource(t)
	spec, rels := analyze(t, src, chainQuery)
	g, err := BuildGraph(spec, rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.stats = map[string]*stats.Table{}
	for _, r := range spec.Rels {
		g.stats[r.Alias] = stats.Of(src[r.Table])
	}
	for _, earlyStop := range []bool{false, true} {
		s, err := newSchedule(g, earlyStop)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			for root := range s.nodes {
				if _, ok := s.simulate(root); !ok {
					t.Fatalf("root %d: chain reported disconnected", root)
				}
				if order := s.bottomUp(); len(order) != len(s.steps) {
					t.Fatalf("root %d: bottom-up order has %d steps, want %d", root, len(order), len(s.steps))
				}
			}
		})
		if allocs != 0 {
			t.Errorf("early stop %v: simulating every root and ordering its bottom-up pass allocates %.1f times, want 0", earlyStop, allocs)
		}
	}
}
