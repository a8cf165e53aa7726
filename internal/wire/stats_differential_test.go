package wire

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// This file is the correctness gate of the cost-based planner: for every
// workload query, the wire-encoded response of a cost-based database — across
// parallelism degrees, with statistics built eagerly and lazily — must be
// byte-identical to a heuristic-planner oracle that received exactly the same
// statements. The cost model is allowed to change the root, the semi-join
// order, the Bloom decisions, the range prefilter, and the single-table join
// order; it is not allowed to change a single output byte.
//
// Subdatabase (RDB/RDBRP) results are compared raw: semi-join reduction
// preserves each relation's scan order no matter how the plan is shaped.
// Single-table results are canonicalized by a full row sort first, because
// a different join order legitimately permutes the joined rows (the multiset
// is asserted identical; the order is not part of the contract).

// statsConfig is one cost-based candidate configuration.
type statsConfig struct {
	name    string
	par     int
	analyze bool // eager ANALYZE vs lazy on-demand stats build
}

var statsConfigs = []statsConfig{
	{"cost-par1-analyze", 1, true},
	{"cost-par1-lazy", 1, false},
	{"cost-par4-analyze", 4, true},
	{"cost-par4-lazy", 4, false},
}

// statsFleet loads the same workload into a heuristic oracle and one
// cost-based candidate per configuration.
func statsFleet(t *testing.T, load func(d *db.Database) error) (*db.Database, []*db.Database) {
	t.Helper()
	oracle := db.Open(db.Config{Parallelism: 1})
	if err := load(oracle); err != nil {
		t.Fatal(err)
	}
	cands := make([]*db.Database, len(statsConfigs))
	for i, cfg := range statsConfigs {
		d := db.Open(db.Config{Parallelism: cfg.par, CostBased: true})
		if err := load(d); err != nil {
			t.Fatal(err)
		}
		if cfg.analyze {
			if _, err := d.Exec("ANALYZE"); err != nil {
				t.Fatal(err)
			}
		}
		cands[i] = d
	}
	return oracle, cands
}

// sortedBytes executes sql and returns sortedEncoding of the result. Used for
// single-table comparisons, where join order legitimately permutes rows.
func sortedBytes(t *testing.T, d *db.Database, sql string) []byte {
	t.Helper()
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return sortedEncoding(res)
}

// checkStats runs sql on the oracle and every candidate and requires
// byte-identical wire encodings. ordered=false sorts rows first (single-table
// mode, where join order changes row order but not the multiset).
func checkStats(t *testing.T, oracle *db.Database, cands []*db.Database, name, sql string, ordered bool) {
	t.Helper()
	exec := execBytes
	if !ordered {
		exec = sortedBytes
	}
	want := exec(t, oracle, sql)
	for i, d := range cands {
		got := exec(t, d, sql)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s [%s]: cost-based execution differs from heuristic oracle\nsql: %s",
				name, statsConfigs[i].name, sql)
		}
	}
}

func TestStatsDifferentialJOB(t *testing.T) {
	oracle, cands := statsFleet(t, func(d *db.Database) error {
		return job.Load(d, job.Config{Scale: 0.05, Seed: 42})
	})
	for _, q := range job.Queries() {
		sql := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
		checkStats(t, oracle, cands, q.Name+"/rdb", sql, true)
	}
	for _, name := range job.Table1Queries {
		q, err := job.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		trimmed := strings.TrimSpace(q.SQL)
		rp := "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(trimmed, "SELECT")
		checkStats(t, oracle, cands, name+"/rdbrp", rp, true)
		checkStats(t, oracle, cands, name+"/st", trimmed, false)
	}
}

func TestStatsDifferentialStar(t *testing.T) {
	cfg := star.Config{Dims: 3, DimRows: 12, PayloadLen: 16, Seed: 7}
	oracle, cands := statsFleet(t, func(d *db.Database) error {
		return star.Load(d, cfg)
	})
	queries := func(tag string) {
		for _, sel := range []float64{0.2, 0.6, 1.0} {
			st := star.Query(cfg, sel)
			rdb := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(star.PayloadQuery(cfg, sel)), "SELECT")
			checkStats(t, oracle, cands, fmt.Sprintf("star-%.1f%s/st", sel, tag), st, false)
			checkStats(t, oracle, cands, fmt.Sprintf("star-%.1f%s/rdb", sel, tag), rdb, true)
		}
	}
	queries("")
	// DML after ANALYZE: the new table version has no statistics yet, so they
	// are built afresh on demand — and results must not change either way.
	ins := "INSERT INTO fact VALUES (999983, 1, 2, 0, 3.5)"
	if _, err := oracle.Exec(ins); err != nil {
		t.Fatal(err)
	}
	for _, d := range cands {
		if _, err := d.Exec(ins); err != nil {
			t.Fatal(err)
		}
	}
	queries("-postdml")
}

func TestStatsDifferentialHierarchy(t *testing.T) {
	oracle, cands := statsFleet(t, func(d *db.Database) error {
		return hierarchy.Load(d, hierarchy.DefaultConfig())
	})
	checkStats(t, oracle, cands, "hier/outer", strings.TrimSpace(hierarchy.OuterJoinQuery), false)
	checkStats(t, oracle, cands, "hier/rdb-electronics", strings.TrimSpace(hierarchy.ResultDBElectronics), true)
	checkStats(t, oracle, cands, "hier/rdb-clothing", strings.TrimSpace(hierarchy.ResultDBClothing), true)
}
