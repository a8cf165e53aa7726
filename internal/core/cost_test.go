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

// TestRootSimAllocatesNothing holds rootSim to its doc: once built, simulating
// a candidate root — the BFS, both passes and the containment estimate of
// every step — allocates nothing, with and without early stop.
func TestRootSimAllocatesNothing(t *testing.T) {
	src := chainSource(t)
	spec, rels := analyze(t, src, chainQuery)
	g, err := BuildGraph(spec, rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	tableStats := map[string]*stats.Table{}
	for _, r := range spec.Rels {
		tableStats[r.Alias] = stats.Of(src[r.Table])
	}
	sim, ok := newRootSim(g, newEstimator(g, tableStats))
	if !ok {
		t.Fatal("no simulator for a 4-chain")
	}
	for _, earlyStop := range []bool{false, true} {
		opts := DefaultOptions()
		opts.EarlyStop = earlyStop
		allocs := testing.AllocsPerRun(50, func() {
			for root := range sim.nodes {
				if _, ok := sim.simulate(root, &opts); !ok {
					t.Fatalf("root %d: chain reported disconnected", root)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("early stop %v: simulating every root allocates %.1f times, want 0", earlyStop, allocs)
		}
	}
}
